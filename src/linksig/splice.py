"""Splice diagrams of iterated torus links.

A splice diagram is a decorated tree: some leaves are arrowheads (the link
components, each with a sign), and every node (vertex of valence >= 3)
carries an integer weight on each incident edge.  Links built from the
unknot by repeated cabling live here, together with the two product
formulas for their potential functions.  Both read the linking weights
ell(v, a) of the vertices v to the arrowheads a, which one walk of the tree
from each arrowhead computes (`SpliceDiagram._linking_from` defines them):
the one-variable formula over the vertex multiplicities
m_v = sum_a sign(a) ell(v, a), and the multivariable product over the
linking vectors (sign(a) ell(v, a))_a with its formal-cancellation
convention.  Both are evaluated by one route, `FactorProduct.omega`, which
takes the limit s -> 1 of the product on a line t_j = t s^(c_j) in closed
form: a factor that vanishes on the diagonal t_j = t is s^w - s^-w there and
gives the integer w, every other factor its binomial in t.

Cabling with d new components of type (dp, dq) replaces an arrowhead by a
node carrying weight q on the edge toward the rest of the diagram, weight p
on the core edge (the old arrowhead if the core remains, a fresh plain leaf
if it is removed), and weight 1 on each of the d new arrowhead edges.  This
placement is forced by the linking numbers lk(new, core) = q,
lk(new, new') = pq, lk(new, other) = p*lk(core, other).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod

from .braid import family_params
from .gaussian import GaussianInteger
from .laurent import (ExactDivisionError, LaurentPolynomial,
                      _divide_power_minus_one, _times_power_minus_one)


class ENFormulaInapplicable(ValueError):
    """The one-variable product formula has a vanishing denominator term."""


# ---------------------------------------------------------------------------
# the diagram


class SpliceDiagram:
    """An immutable decorated tree; see the module docstring.

    Vertices are integer ids.  ``kind`` is "arrowhead" or "plain"; weights
    exist exactly on (vertex, edge) pairs where the vertex is a node.
    """

    def __init__(self, vertices: dict[int, dict], edges: list[tuple]):
        # edges: (a, b, weight_at_a | None, weight_at_b | None)
        self._vertices = {v: dict(data) for v, data in vertices.items()}
        self._adj: dict[int, dict[int, int | None]] = {v: {} for v in self._vertices}
        for a, b, wa, wb in edges:
            if a not in self._adj or b not in self._adj:
                raise ValueError(f"edge ({a}, {b}) joins an unknown vertex")
            if a == b or b in self._adj[a]:
                raise ValueError("edges must join distinct vertices, once")
            self._adj[a][b] = wa
            self._adj[b][a] = wb
        self._validate()

    # -- structure ----------------------------------------------------

    def _validate(self) -> None:
        verts = self._vertices
        if not verts:
            raise ValueError("empty diagram")
        # connected tree
        edge_count = sum(len(nbrs) for nbrs in self._adj.values()) // 2
        if edge_count != len(verts) - 1:
            raise ValueError("diagram is not a tree")
        seen = set()
        stack = [next(iter(verts))]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            stack.extend(self._adj[v])
        if len(seen) != len(verts):
            raise ValueError("diagram is not connected")
        # ids, signs and weights must be plain ints: a JSON float or bool is
        # refused, not truncated
        for v, data in verts.items():
            for x in (v, *self._adj[v]):
                if type(x) is not int:
                    raise ValueError(f"vertex id {x!r} is not an integer")
            val = len(self._adj[v])
            if data.get("kind") not in ("arrowhead", "plain"):
                raise ValueError(f"vertex {v} has kind {data.get('kind')!r}, "
                                 "not 'arrowhead' or 'plain'")
            if data["kind"] == "arrowhead":
                if val != 1:
                    raise ValueError(f"arrowhead {v} must have valence 1")
                if type(data.get("sign")) is not int or data["sign"] not in (1, -1):
                    raise ValueError(f"arrowhead {v} needs a sign +-1, "
                                     f"not {data.get('sign')!r}")
            elif val == 2:
                raise ValueError(f"vertex {v} has forbidden valence 2")
            is_node = val >= 3
            for u, w in self._adj[v].items():
                if is_node and type(w) is not int:
                    raise ValueError(f"node {v} needs an integer weight on "
                                     f"the edge to {u}, not {w!r}")
                if not is_node and w is not None:
                    raise ValueError(f"non-node {v} carries a weight")
        # a potential has one variable per link component
        if not any(data["kind"] == "arrowhead" for data in verts.values()):
            raise ValueError("diagram has no arrowhead")

    def vertex_ids(self) -> list[int]:
        return sorted(self._vertices)

    def arrowheads(self) -> list[int]:
        return sorted(v for v, d in self._vertices.items()
                      if d["kind"] == "arrowhead")

    def is_arrowhead(self, v: int) -> bool:
        return self._vertices[v]["kind"] == "arrowhead"

    def sign(self, v: int) -> int:
        if not self.is_arrowhead(v):
            raise ValueError(f"vertex {v} is not an arrowhead")
        return self._vertices[v]["sign"]

    def valence(self, v: int) -> int:
        return len(self._adj[v])

    def _fresh_id(self) -> int:
        return max(self._vertices) + 1

    def _as_lists(self) -> tuple[dict[int, dict], list[tuple]]:
        verts = {v: dict(d) for v, d in self._vertices.items()}
        edges = []
        for a in sorted(self._adj):
            for b, wa in self._adj[a].items():
                if a < b:
                    edges.append((a, b, wa, self._adj[b][a]))
        return verts, edges

    # -- constructors ---------------------------------------------------

    @staticmethod
    def unknot() -> "SpliceDiagram":
        """One plain leaf joined to one positive arrowhead."""
        return SpliceDiagram(
            {0: {"kind": "plain"}, 1: {"kind": "arrowhead", "sign": 1}},
            [(0, 1, None, None)],
        )

    def cable(self, arrowhead: int, d: int, p: int, q: int,
              core: str = "removed") -> "SpliceDiagram":
        """(dp, dq)-cabling along the component of the given arrowhead.

        New vertex ids are allocated deterministically: the node first, then
        the core leaf when the core is removed, then the d new arrowheads in
        order.
        """
        if core not in ("removed", "remained"):
            raise ValueError("core must be 'removed' or 'remained'")
        if d < 1:
            raise ValueError("d must be a positive integer")
        if gcd(p, q) != 1:
            raise ValueError(f"(p, q) = ({p}, {q}) must be coprime")
        if arrowhead not in self._vertices or not self.is_arrowhead(arrowhead):
            raise ValueError(f"vertex {arrowhead} is not an arrowhead")

        verts, edges = self._as_lists()
        (u,) = self._adj[arrowhead]
        node = self._fresh_id()
        edges = [e for e in edges if arrowhead not in (e[0], e[1])]
        # weight toward the companion; the neighbor keeps its own weight
        edges.append((u, node, self._adj[u][arrowhead], q))
        verts[node] = {"kind": "plain"}
        next_id = node + 1
        if core == "removed":
            del verts[arrowhead]
            leaf = next_id
            next_id += 1
            verts[leaf] = {"kind": "plain"}
            edges.append((node, leaf, p, None))
        else:
            edges.append((node, arrowhead, p, None))
        for _ in range(d):
            a = next_id
            next_id += 1
            verts[a] = {"kind": "arrowhead", "sign": 1}
            edges.append((node, a, 1, None))
        return SpliceDiagram(verts, edges)

    # -- linking calculus ------------------------------------------------

    def _linking_from(self, j: int) -> dict[int, int]:
        """ell(v, j) for every vertex v != j, from one walk of the tree from j.

        ell(v, j) is the product, over the nodes on the path from v to j (both
        ends included), of their weights on the edges off that path.  The walk
        passes on the product over the nodes behind it: leaving a node by the
        edge to u multiplies in its weights on every edge but that one and the
        one it was entered by.
        """
        ell: dict[int, int] = {}
        stack: list[tuple[int, int | None, int]] = [(j, None, 1)]
        while stack:
            v, parent, carried = stack.pop()
            # only a start leaf has an unweighted edge off the path: the one the
            # walk leaves by, so the 1 put for its weight reaches no product
            off = [(u, 1 if w is None else w)
                   for u, w in self._adj[v].items() if u != parent]
            # the weights on all edges but the one left by, as a suffix product
            # times a prefix product: no division, since a weight may be 0
            after = [carried]
            for _, w in reversed(off):
                after.append(after[-1] * w)
            if parent is not None:
                ell[v] = after[-1]
            before = 1
            for u, w in off:
                after.pop()
                stack.append((u, v, before * after[-1]))
                before *= w
        return ell

    def linking_ell(self, i: int, j: int) -> int:
        """The linking weight ell(i, j) that `_linking_from` defines."""
        if i == j:
            raise ValueError("linking_ell requires two distinct vertices")
        return self._linking_from(j)[i]

    def _linking_vectors(self) -> tuple[int, dict[int, tuple[int, ...]]]:
        """The arrowhead sign product and the linking vector of each vertex.

        The vector of a vertex v that is not an arrowhead is
        (sign(a) * ell(v, a)) over the arrowheads a in sorted-id order.
        """
        arrows = self.arrowheads()
        signs = [self.sign(a) for a in arrows]
        vectors: dict = {v: [] for v in self.vertex_ids() if not self.is_arrowhead(v)}
        # one walk at a time, dropped once its weights are in the vectors, so
        # the V x A weights are held once
        for sign, a in zip(signs, arrows):
            ell = self._linking_from(a)
            for v, vec in vectors.items():
                vec.append(sign * ell[v])
        for v, vec in vectors.items():
            vectors[v] = tuple(vec)
        return prod(signs), vectors

    def _linking_size(self) -> tuple[int, int]:
        """(V, A): `_linking_vectors` takes time and memory about V x A."""
        return len(self._vertices), len(self.arrowheads())

    def m_values(self) -> dict[int, int]:
        """m_v = sum over arrowheads a of sign(a) * ell(v, a)."""
        return {v: sum(vec) for v, vec in self._linking_vectors()[1].items()}

    def omega_via_EN(self) -> LaurentPolynomial:
        """The one-variable potential from the vertex multiplicities.

        Requires m_v != 0 at every valence-1 plain vertex (otherwise a factor
        of the denominator vanishes and the multivariable route must be
        used); a vanishing m_v at a node makes the whole product zero.
        """
        sign, vectors = self._linking_vectors()
        factors = []
        for v, vec in vectors.items():
            m = sum(vec)
            if self.valence(v) == 1 and m == 0:
                raise ENFormulaInapplicable(
                    f"m = 0 at leaf {v}; use nabla_multivariable")
            factors.append(((m,), self.valence(v) - 2))
        return FactorProduct.build(1, sign, factors).omega()

    def nabla_multivariable(self) -> "FactorProduct":
        """The multivariable potential as a formal product of binomial factors.

        Variable j corresponds to the j-th arrowhead in sorted-id order.
        """
        sign, vectors = self._linking_vectors()
        return FactorProduct.build(
            len(self.arrowheads()), sign,
            [(vec, self.valence(v) - 2) for v, vec in vectors.items()])

    def link_determinant(self) -> GaussianInteger:
        """Potential at t = i, from the multivariable factor product.

        `FactorProduct.omega` takes the product on a line where no factor
        vanishes, so a leaf with m = 0 needs no other route.
        """
        return self.nabla_multivariable().det()

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        verts = [
            {"id": v, "kind": d["kind"], **({"sign": d["sign"]}
                                            if d["kind"] == "arrowhead" else {})}
            for v, d in sorted(self._vertices.items())
        ]
        edges = []
        for a, b, wa, wb in self._as_lists()[1]:
            e: dict = {"a": a, "b": b}
            if wa is not None:
                e["weight_at_a"] = wa
            if wb is not None:
                e["weight_at_b"] = wb
            edges.append(e)
        return {"vertices": verts, "edges": edges}

    @staticmethod
    def from_json(obj: dict) -> "SpliceDiagram":
        """The diagram `to_json` wrote; malformed data raises ValueError."""
        try:
            verts: dict[int, dict] = {}
            for v in obj["vertices"]:
                if v["id"] in verts:
                    raise ValueError(f"vertex id {v['id']!r} is listed twice")
                sign = {"sign": v["sign"]} if v["kind"] == "arrowhead" else {}
                verts[v["id"]] = {"kind": v["kind"], **sign}
            edges = [(e["a"], e["b"], e.get("weight_at_a"), e.get("weight_at_b"))
                     for e in obj["edges"]]
            # an unhashable edge end fails the vertex lookup with a TypeError
            return SpliceDiagram(verts, edges)
        except KeyError as exc:
            raise ValueError(f"splice diagram lacks the key {exc}") from None
        except TypeError as exc:
            raise ValueError(f"malformed splice diagram: {exc}") from None

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


# ---------------------------------------------------------------------------
# formal factor products (the multivariable potential)


@dataclass(frozen=True)
class FactorProduct:
    """sign * prod (x^v - x^-v)^power over exponent vectors v.

    Vectors are canonicalized so the first nonzero component is positive
    (each flip of an odd power negates the sign).  Zero vectors are the
    formally-cancelled terms: equal powers in numerator and denominator
    cancel as factor objects; a surviving positive power makes the whole
    product zero (``sign == 0``), a surviving negative power is an error.
    """

    nvars: int
    sign: int
    factors: tuple[tuple[tuple[int, ...], int], ...]

    @staticmethod
    def build(nvars: int, sign: int,
              raw: list[tuple[tuple[int, ...], int]]) -> "FactorProduct":
        merged: dict[tuple[int, ...], int] = {}
        for vec, power in raw:
            if len(vec) != nvars:
                raise ValueError("exponent vector of wrong length")
            first = next((c for c in vec if c != 0), 0)
            if first < 0:
                vec = tuple(-c for c in vec)
                if power % 2:
                    sign = -sign
            merged[vec] = merged.get(vec, 0) + power
        zero = tuple([0] * nvars)
        net_zero = merged.pop(zero, 0)
        if net_zero < 0:
            raise ZeroDivisionError(
                "formal cancellation leaves a vanishing denominator factor")
        if net_zero > 0:
            return FactorProduct(nvars, 0, ())
        factors = tuple(sorted((v, p) for v, p in merged.items() if p != 0))
        return FactorProduct(nvars, sign, factors)

    def omega(self) -> LaurentPolynomial:
        """(t - t^-1) * (the product specialized at t_1 = ... = t_n = t).

        The limit as s -> 1 on the line t_j = t s^(c_j), c_j = r^j - 1, r =
        2 max|v_j| + 1, where x^v = t^(sum v) s^w with w = sum c_j v_j.  A factor
        with sum v != 0 tends to t^(sum v) - t^-(sum v); one with sum v = 0 is
        (s - s^-1) [w]_s, [w]_1 = w = sum r^j v_j != 0 (balanced base r).  Let Z
        be the total power of the latter.  Z > 0 gives 0 and nothing else is
        checked.  Z < 0 (a pole), a non-integer prod w^p or an inexact division
        raises ExactDivisionError.  Z = 0 gives sign * prod w^p * (t - t^-1) *
        prod (t^(sum v) - t^-(sum v))^p on one dense coefficient list, dividing
        after multiplying out, at the cost that `_omega_size` states.
        """
        if self.sign == 0:
            return LaurentPolynomial.zero()
        r = 2 * max((abs(c) for vec, _ in self.factors for c in vec), default=0) + 1
        times, dens = [], []  # the a of each t^a - t^-a, counted p times
        scale, vanishing = Fraction(self.sign), 0
        for vec, power in self.factors:
            total = sum(vec)
            if total == 0:
                scale *= Fraction(sum(r**j * c for j, c in enumerate(vec))) ** power
                vanishing += power
                continue
            if total < 0 and power % 2:
                scale = -scale  # t^-a - t^a = -(t^a - t^-a)
            (times if power > 0 else dens).extend([abs(total)] * abs(power))
        if vanishing > 0:
            return LaurentPolynomial.zero()
        if vanishing < 0 or scale.denominator != 1:
            raise ExactDivisionError("the product is not a Laurent polynomial")
        # t^a - t^-a = t^-a (t^(2a) - 1), from t - t^-1 = t^-1 (t^2 - 1)
        num, low = [-1, 0, 1], -1 - sum(times) + sum(dens)
        for a in times:
            num = _times_power_minus_one(num, 2 * a)
        for a in dens:
            num = _divide_power_minus_one(num, 2 * a)
        return LaurentPolynomial._wrap({e: scale.numerator * x
                                        for e, x in enumerate(num, low) if x})

    def _omega_size(self) -> tuple[int, int]:
        """(D, divisions): the numerator degree and division count of `omega`.

        A factor with sum v = 0 only scales.  One with sum v != 0 multiplies
        the numerator for p > 0, so D = 1 + sum |sum v| p over those, and is
        -p exact divisions for p < 0.  Each product by a binomial and each
        division is one pass over a dense list of at most 2D + 1 coefficients,
        so `omega` costs about D x (numerator passes + divisions) list steps,
        a factor counted p times.
        """
        binomials = [(abs(sum(vec)), power) for vec, power in self.factors if sum(vec)]
        return (1 + sum(total * power for total, power in binomials if power > 0),
                -sum(power for _, power in binomials if power < 0))

    def det(self) -> GaussianInteger:
        return self.omega().eval_at_i()

    def describe(self) -> list[dict]:
        """JSON-able listing of the factors."""
        return [{"exponents": list(v), "power": p} for v, p in self.factors]


# ---------------------------------------------------------------------------
# named diagrams


def torus_delta_diagram(n: int, k: int) -> SpliceDiagram:
    """The closure of the n-th half-twist power in B_{2k+1} as a splice diagram."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    d = SpliceDiagram.unknot()
    core = 1
    if n % 2 == 1:
        for _ in range(k):
            d = d.cable(core, 1, 2, n, core="remained")
    else:
        d = d.cable(core, 2 * k + 1, 1, n // 2, core="removed")
    return d


def _central_pair(n: int, k: int, J: int, doubles: int) -> SpliceDiagram:
    d = SpliceDiagram.unknot()
    core = 1
    if n % 2 == 1:
        for _ in range(doubles):
            d = d.cable(core, 1, 2, n, core="remained")
    elif doubles:
        d = d.cable(core, 2 * doubles, 1, n // 2, core="remained")
    inner_arrow = d._fresh_id() + 1
    d = d.cable(core, 1, 1, (n - J) // 2, core="remained")
    assert d.is_arrowhead(inner_arrow)
    outer_arrow = d._fresh_id() + 1
    d = d.cable(inner_arrow, 1, 1, (n + J) // 2, core="remained")
    assert d.is_arrowhead(outer_arrow)
    return d


def b_family_diagram(n: int, k: int, J: int) -> SpliceDiagram:
    """Diagram of the closed narrow-pair braid with all twist counts 1."""
    family_params("b", n, k, J, (1,) * J)
    return _central_pair(n, k, J, k - 1)


def c_family_diagram(n: int, k: int, J: int) -> SpliceDiagram:
    """Diagram of the closed wide-pair braid with all twist counts 1."""
    family_params("c", n, k, J, (1,) * J)
    d = _central_pair(n, k, J, k - 2)
    # the strand between the jump pair and the outer cables doubles up
    inner_arrow = d.arrowheads()[-2]
    if n % 2 == 1:
        d = d.cable(inner_arrow, 1, 2, n, core="remained")
    else:
        d = d.cable(inner_arrow, 2, 1, n // 2, core="remained")
    return d


def ring_family_diagram(q: int, ps: list[int]) -> SpliceDiagram:
    """A two-stranded cable threaded through rings with winding numbers ps.

    Ring j is a component linking the core q-cable strand pair 2*ps[j]
    times; the diagram's distinguishing feature is the valence-(n+1) vertex
    with edge weights (0, 1, ..., 1).
    """
    n = len(ps)
    if n < 1:
        raise ValueError("at least one ring is required")
    if any(p == 0 for p in ps):
        raise ValueError("zero winding splits the link; its potential is 0")
    verts: dict[int, dict] = {}
    edges: list[tuple] = []
    vid = 0

    def add(kind: str, sign: int | None = None) -> int:
        nonlocal vid
        verts[vid] = {"kind": kind, **({"sign": sign} if sign is not None else {})}
        vid += 1
        return vid - 1

    v = add("plain")  # cable node
    cable_leaf = add("plain")
    if q % 2:
        edges.append((v, cable_leaf, 2, None))
        edges.append((v, add("arrowhead", 1), 1, None))
        v_weight_out = q
    else:
        edges.append((v, cable_leaf, 1, None))
        edges.append((v, add("arrowhead", 1), 1, None))
        edges.append((v, add("arrowhead", 1), 1, None))
        v_weight_out = q // 2
    rings = []
    for p in ps:
        w = add("plain")
        leaf = add("plain")
        arrow = add("arrowhead", 1)
        edges.append((w, leaf, p, None))
        edges.append((w, arrow, 1, None))
        rings.append(w)
    if n == 1:
        edges.append((v, rings[0], v_weight_out, 1))
    else:
        u = add("plain")
        edges.append((u, v, 0, v_weight_out))
        for w in rings:
            edges.append((u, w, 1, 1))
    return SpliceDiagram(verts, edges)


def ring_family_det_skein(q: int, ps: list[int]) -> GaussianInteger:
    """Determinant of the ring family by the crossing-change average.

    Replacing q by q+-1 gives two diagrams, whose determinants
    `link_determinant` takes; the determinant of the original follows from
    det L_+ - det L_- = 2i det L_0 applied at the modified crossing.
    """
    if any(p == 0 for p in ps):
        return GaussianInteger(0, 0)
    plus = ring_family_diagram(q + 1, ps).link_determinant()
    minus = ring_family_diagram(q - 1, ps).link_determinant()
    diff = plus - minus
    # divide by 2i exactly
    num = diff * GaussianInteger(0, -1)
    if num.re % 2 or num.im % 2:
        raise ArithmeticError("crossing-change relation gave a non-integral value")
    return GaussianInteger(num.re // 2, num.im // 2)
