"""Submodule inventory, composition series, Heisenberg eigenvalue bookkeeping
and ladder-graph export.

Submodules are represented descriptively: each H_{l,k} is a weight string
m = 2k+q (mod 4) in steps of 4, with a lowest (resp. highest) weight vector
at m = 2k+4l+n (resp. -(2k+4l+n)) exactly when q = n (resp. q = -n) mod 4.
The composition chains follow the four-case classification by (q, n) mod 4.

``ktype_lattice`` and ``ladder_graph`` share one weight walk: the admissible
pairs of their lambdas (every admissible lambda <= lambda_max for the
lattice, the caller's list for the graph), each with its legal weights in a
window.  The E edges and ``heisenberg_targets`` take their moves from
``operators.e_targets``.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

from .admissibility import (
    ParameterSet,
    admissible_pairs,
    boundary_weight,
    enumerate_admissible,
    k_in_range,
    pair_eigenvalue,
    weight_residue,
)
from .operators import e_targets, e_values, eta_coefficient, shipped_E_coefficients
from .ktypes import KTypeVector, make_ktype
from .polynomials import harmonic_representative


@dataclass(frozen=True)
class SubmoduleDescriptor:
    """One H_{l,k} inside ker(Omega'' - 2 lambda)."""

    l: int
    k: int
    lam: int
    weight_residue: int           # m = this (mod 4)
    boundary_weight: int          # 2k + 4l + n
    has_lowest: bool              # q = n (mod 4): H+ submodule from m >= boundary
    has_highest: bool             # q = -n (mod 4): H- submodule from m <= -boundary
    irreducible: bool

    def to_json(self) -> dict:
        return {
            "l": self.l,
            "k": self.k,
            "lambda": [self.lam, 1],
            "weight_residue": self.weight_residue,
            "boundary_weight": self.boundary_weight,
            "has_lowest": self.has_lowest,
            "has_highest": self.has_highest,
            "irreducible": self.irreducible,
        }


@dataclass(frozen=True)
class CompositionSeries:
    """A maximal chain of invariant subspaces with its case tag (1)-(4)."""

    case: int
    chain: tuple[str, ...]

    def to_json(self) -> dict:
        return {"case": self.case, "chain": list(self.chain)}


def structure_case(params: ParameterSet) -> int:
    """Case tag: 1 = neither boundary, 2 = lowest only, 3 = highest only, 4 = both."""
    low = (params.q - params.n) % 4 == 0
    high = (params.q + params.n) % 4 == 0
    if low and high:
        return 4
    if low:
        return 2
    if high:
        return 3
    return 1


CHAINS = {
    1: ("0", "H0", "H"),
    2: ("0", "H0+", "H0", "H0+H+", "H"),
    3: ("0", "H0-", "H0", "H0+H-", "H"),
    4: ("0", "H0-", "H0+oH0-", "H0", "H0+H-", "H0+H-+H+", "H"),
}


def composition_series(params: ParameterSet) -> CompositionSeries:
    """The composition chain for H determined by (q, n) mod 4.

    Case 1 is the short chain 0 < H0 < H with H0 the unique irreducible
    submodule; cases 2 and 3 insert the lowest/highest weight submodules
    H0+ / H0-; case 4 (n even, q = n = -n mod 4) is the six-step chain.
    """
    case = structure_case(params)
    return CompositionSeries(case, CHAINS[case])


def decompose(params: ParameterSet, lam) -> list[SubmoduleDescriptor]:
    """Descriptors of the H_{l,k} summands of ker(Omega'' - 2 lambda)_K.

    One per lambda-admissible pair, ordered by decreasing l.  Raises
    AdmissibilityError when lambda is not admissible.
    """
    n = params.n
    case = structure_case(params)
    out = []
    for l, k in admissible_pairs(n, lam):
        out.append(
            SubmoduleDescriptor(
                l=l,
                k=k,
                lam=pair_eigenvalue(n, l, k),
                weight_residue=weight_residue(params, k),
                boundary_weight=boundary_weight(n, l, k),
                has_lowest=case in (2, 4),
                has_highest=case in (3, 4),
                irreducible=case == 1,
            )
        )
    return out


def heisenberg_targets(n: int, l: int, k: int) -> list[tuple[int, int, int]]:
    """The (l', k', lambda') targets reachable from (l, k) under E_j.

    lambda' - lambda is +-(2l+2k+n-2) for the (l-+1, k+-1) moves and +-2l
    for the (l, k+-1) moves.  Pairs with an out-of-range k' are dropped;
    l' = 0 entries belong to the lambda = 0 family.
    """
    if l < 0:
        raise ValueError("l must be >= 0")
    return [(l2, k2, pair_eigenvalue(n, l2, k2)) for _, l2, k2 in e_targets(n, l, k)]


# ---------------------------------------------------------------------------
# the weight walk shared by the ladder graphs and the K-type lattice
# ---------------------------------------------------------------------------


def _weights(params: ParameterSet, k: int, m_lo: int, m_hi: int) -> range:
    """The legal weights m = 2k + q (mod 4) of k in [m_lo, m_hi]."""
    return range(m_lo + (weight_residue(params, k) - m_lo) % 4, m_hi + 1, 4)


# ---------------------------------------------------------------------------
# ladder graphs (the data behind the weight-lattice and Heisenberg figures)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GraphNode:
    m: int
    l: int
    k: int
    lam: int

    @property
    def key(self) -> str:
        return f"{self.m},{self.l},{self.k}"


@dataclass(frozen=True)
class GraphEdge:
    source: tuple[int, int, int]
    target: tuple[int, int, int]
    operator: str
    coefficient: complex
    dangling: bool = False


@dataclass
class LadderGraph:
    """Nodes are K-type indices; edges carry eta/E ladder coefficients.

    Edges to indices outside the truncation window are kept with
    ``dangling=True`` so the cut is visible in exports.
    """

    params: ParameterSet
    nodes: list[GraphNode]
    edges: list[GraphEdge]

    def to_json(self) -> dict:
        return {
            "n": self.params.n,
            "q": self.params.q,
            "s": [self.params.s.real, self.params.s.imag],
            "nodes": [
                {
                    "m": v.m,
                    "l": v.l,
                    "k": v.k,
                    "lambda": [v.lam, 1],
                }
                for v in self.nodes
            ],
            "edges": [
                {
                    "source": list(e.source),
                    "target": list(e.target),
                    "operator": e.operator,
                    "coefficient": [e.coefficient.real, e.coefficient.imag],
                    "dangling": e.dangling,
                }
                for e in self.edges
            ],
        }

    def to_dot(self) -> str:
        lines = ["digraph ladder {", "  rankdir=LR;"]
        for v in self.nodes:
            lines.append(
                f'  "{v.key}" [label="F[{v.m},{v.l},{v.k}]\\nlambda={v.lam}"];'
            )
        for e in self.edges:
            src = ",".join(map(str, e.source))
            tgt = ",".join(map(str, e.target))
            style = ' style=dashed' if e.dangling else ""
            coeff = f"{e.coefficient.real:+.4g}{e.coefficient.imag:+.4g}i"
            lines.append(
                f'  "{src}" -> "{tgt}" [label="{e.operator}: {coeff}"{style}];'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"


def ladder_graph(
    params: ParameterSet,
    lambdas: list,
    m_range: tuple[int, int],
    heisenberg: bool,
) -> LadderGraph:
    """Weight-lattice graph over the given admissible lambdas.

    Nodes: indices (m, l, k) with m in m_range and m = 2k+q (mod 4), one per
    admissible pair of each lambda.  Eta edges use the exact ladder
    coefficients.  The ``heisenberg`` graph adds the l = 0 family and the E
    edges, with the oracle-confirmed coefficients and zero coefficients
    omitted.  Raises AdmissibilityError for an inadmissible lambda.
    """
    n = params.n
    m_lo, m_hi = m_range
    if m_lo > m_hi:
        raise ValueError("empty m range")
    pair_set = [pair for lam in lambdas for pair in admissible_pairs(n, lam)]
    if heisenberg:
        k_cap = max((k for _, k in pair_set), default=4) + 1
        pair_set.extend((0, k) for k in range(k_cap) if k_in_range(n, k))

    nodes: dict[tuple[int, int, int], GraphNode] = {}
    for l, k in pair_set:
        lam = pair_eigenvalue(n, l, k)
        for m in _weights(params, k, m_lo, m_hi):
            nodes[(m, l, k)] = GraphNode(m, l, k, lam)

    in_window = set(nodes)
    edges: list[GraphEdge] = []
    for (m, l, k), node in sorted(nodes.items()):
        # eta ladder: m -> m +- 4 within the same (l, k)
        for sign in (+1, -1):
            coeff = eta_coefficient(n, m, l, k, sign)
            if coeff == 0:
                continue
            target = (m + 4 * sign, l, k)
            edges.append(
                GraphEdge(
                    (m, l, k),
                    target,
                    "eta+" if sign > 0 else "eta-",
                    complex(coeff),
                    dangling=target not in in_window,
                )
            )
        if not heisenberg:
            continue
        for sign in (+1, -1):
            values = e_values(shipped_E_coefficients(n, m, l, k, sign), params.s)
            for label, l2, k2 in e_targets(n, l, k):
                coeff = values[label]
                if coeff == 0:
                    continue
                target = (m + 2 * sign, l2, k2)
                edges.append(
                    GraphEdge(
                        (m, l, k),
                        target,
                        "E+" if sign > 0 else "E-",
                        coeff,
                        dangling=target not in in_window,
                    )
                )
    return LadderGraph(params, [nodes[key] for key in sorted(nodes)], edges)


# rows per admissible lambda in the level-curve CSV
_LEVEL_SAMPLES = 200


def level_curves_csv(n: int, lam_max) -> str:
    """CSV rows (lambda, l, k_real) sampling k = lambda/(2l) - l + 1 - n/2.

    One block of ``_LEVEL_SAMPLES`` rows per admissible lambda <= lam_max
    over a real l grid; the data behind the admissible level-curve figure.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["lambda", "l", "k"])
    for lam in enumerate_admissible(n, lam_max):
        top = float((-(n - 2) + (((n - 2) ** 2 + 8 * lam) ** 0.5)) / 4 + 1)
        for i in range(1, _LEVEL_SAMPLES + 1):
            l = top * i / _LEVEL_SAMPLES
            k = float(lam) / (2 * l) - l + 1 - n / 2
            writer.writerow([str(lam), f"{l:.6f}", f"{k:.6f}"])
    return out.getvalue()


def weight_string(params: ParameterSet, l: int, k: int, m_max: int) -> list[KTypeVector]:
    """The weight string of the pair (l, k): one K-type per legal weight
    |m| <= m_max, by increasing m, all with the pair's representative
    harmonic, so m steps by 4 along the eta ladder."""
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    h = harmonic_representative(params.n, k)
    return [make_ktype(params, m, l, k, h) for m in _weights(params, k, -m_max, m_max)]


def ktype_lattice(
    params: ParameterSet,
    lam_max,
    m_max: int,
    include_zero_family: bool = False,
) -> list[KTypeVector]:
    """The weight strings of every admissible pair, by increasing lambda.

    Uses a single representative harmonic per pair.  The lambda = 0 family
    adds the pairs (0, k) with k <= 2 in range.
    """
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    pair_list = [
        pair
        for lam in enumerate_admissible(params.n, lam_max)
        for pair in admissible_pairs(params.n, lam)
    ]
    if include_zero_family:
        pair_list.extend((0, k) for k in range(3) if k_in_range(params.n, k))
    return [F for l, k in pair_list for F in weight_string(params, l, k, m_max)]
