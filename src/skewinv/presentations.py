"""Presentations of invariant rings: relation synthesis and verification.

A presentation is a list of generator degrees plus homogeneous relations in
the free algebra on those generators.  Quotient dimensions are computed
degree by degree: the degree-d piece of the free algebra splits by first
letter as F_d = sum_x x * F_(d - deg x), and the two-sided ideal satisfies
I_d = sum_x x * I_(d - deg x) + sum_rho rho * F_(d - deg rho), so the
quotient Q_d is assembled from the lower quotients and the projections of
rho * (lower classes).  This returns exactly dim F_d / I_d while only ever
storing spaces of the quotient's (small) dimensions.  The DP runs on sparse
rows end to end, reduced by `linalg.rref` over a field: Q(w_m) for
`truncated_quotient_dims`, and F_p for the upper bound that
`verify_presentation` pins against the exact rank of the generators' span,
capped at the Molien count.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ParameterError
from .group_actions import GroupSpec
from .hj_series import typeA_data
from .invariants import generator_set, molien, subalgebra_spans
from .linalg import EXACT, PrimeField, nullspace, rref
from .scalars import Cyclo, gen_binomial
from .skew_algebra import AlgebraElt, AlgebraSpec, _coerce_scalar, mul, to_text

FreeWord = tuple[int, ...]
Relation = list[tuple[Cyclo, FreeWord]]


@dataclass
class Presentation:
    gen_degrees: list[int]
    relations: list[Relation]
    gen_names: list[str] | None = None

    def __post_init__(self):
        if any(d < 1 for d in self.gen_degrees):
            raise ParameterError("generator degrees must be positive")
        if self.gen_names is None:
            self.gen_names = [_default_name(i, len(self.gen_degrees)) for i in range(len(self.gen_degrees))]
        cleaned = []
        for rel in self.relations:
            terms = [(_coerce_scalar(c), tuple(w)) for c, w in rel]
            terms = [(c, w) for c, w in terms if not c.is_zero()]
            if not terms:
                raise ParameterError("empty relation")
            for _, w in terms:
                if any(not (0 <= i < len(self.gen_degrees)) for i in w):
                    raise ParameterError(f"word {w} uses an undefined generator")
            degs = {self.word_degree(w) for _, w in terms}
            if len(degs) != 1:
                raise ParameterError(f"relation is not homogeneous: degrees {sorted(degs)}")
            if 0 in {len(w) for _, w in terms}:
                raise ParameterError("relations must not contain the empty word")
            cleaned.append(terms)
        self.relations = cleaned

    def word_degree(self, w: FreeWord) -> int:
        return sum(self.gen_degrees[i] for i in w)

    def relation_degree(self, idx: int) -> int:
        return self.word_degree(self.relations[idx][0][1])

    def pretty_relation(self, idx: int) -> str:
        parts = []
        for c, w in self.relations[idx]:
            word = "*".join(self.gen_names[i] for i in w)
            parts.append(f"({c})*{word}")
        return " + ".join(parts)

    def to_json(self) -> dict:
        return {
            "generators": [
                {"name": n, "degree": d} for n, d in zip(self.gen_names, self.gen_degrees)
            ],
            "relations": [
                [{"coeff": c.to_json(), "word": list(w)} for c, w in rel]
                for rel in self.relations
            ],
            "pretty": [self.pretty_relation(i) for i in range(len(self.relations))],
        }

    @staticmethod
    def from_json(data: dict) -> "Presentation":
        try:
            degrees = [g["degree"] for g in data["generators"]]
            names = [g["name"] for g in data["generators"]]
            rels = [
                [(_scalar_from_json(t["coeff"]), tuple(t["word"])) for t in rel]
                for rel in data["relations"]
            ]
            return Presentation(degrees, rels, names)
        except KeyError as exc:
            raise ParameterError(f"presentation JSON has no {exc.args[0]!r} field") from None
        except TypeError as exc:
            raise ParameterError(f"malformed presentation JSON: {exc}") from None
        except ZeroDivisionError:
            raise ParameterError(
                "presentation JSON has a coefficient with a zero denominator"
            ) from None


def _scalar_from_json(coeff: dict) -> Cyclo:
    """A coefficient as `Cyclo.to_json` writes it (an integer order, string or
    integer coefficients); as phi(m) >= sqrt(m/2), a huge order is refused
    before phi is computed."""
    order, coeffs = coeff["order"], coeff["coeffs"]
    if type(order) is not int or order < 1:
        raise ParameterError(f"coefficient order must be an integer >= 1, got {order!r}")
    if type(coeffs) is not list or any(type(x) not in (str, int) for x in coeffs):
        raise ParameterError(f"coefficients must be a list of strings or integers, got {coeffs!r}")
    if order > 2 * len(coeffs) ** 2:
        raise ParameterError(f"{len(coeffs)} coefficients are too few for order {order}")
    return Cyclo(order, [Fraction(x) for x in coeffs])


def _default_name(i: int, total: int) -> str:
    if total <= 26:
        return chr(ord("a") + i)
    return f"x{i + 1}"


# ---------------------------------------------------------------------------
# the presentation families
# ---------------------------------------------------------------------------


def jordan_presentation(n: int) -> Presentation:
    """Generators X_0..X_n of degree n; the commutator family
    sum_k C(n-i, k) X_(j-k) X_i = sum_l C(n-j, l) X_(i-l) X_j (j > i) together
    with i X_i X_j = (j+1) X_(i-1) X_(j+1) - (n-1-(j-i)) X_(i-1) X_j."""
    if n < 2:
        raise ParameterError("jordan_presentation needs n >= 2")
    relations: list[Relation] = []
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            rel: Relation = []
            for k in range(j + 1):
                c = gen_binomial(n - i, k)
                if c:
                    rel.append((Cyclo.from_rational(c), (j - k, i)))
            for l in range(i + 1):
                c = gen_binomial(n - j, l)
                if c:
                    rel.append((Cyclo.from_rational(-c), (i - l, j)))
            relations.append(rel)
    for i in range(1, n):
        for j in range(i, n):
            rel = [
                (Cyclo.from_rational(i), (i, j)),
                (Cyclo.from_rational(-(j + 1)), (i - 1, j + 1)),
                (Cyclo.from_rational(n - 1 - (j - i)), (i - 1, j)),
            ]
            relations.append(rel)
    names = [f"X{i}" for i in range(n + 1)] if n > 25 else None
    return Presentation([n] * (n + 1), relations, names)


def quantum_presentation(n: int, a: int, q) -> Presentation:
    """The q-deformed cyclic-quotient presentation on the type A generators."""
    q = _coerce_scalar(q)
    if q.is_zero():
        raise ParameterError("q must be nonzero")
    data = typeA_data(n, a)
    i_s, j_s, beta, d = data.i_series, data.j_series, data.beta, data.d
    degrees = [i + j for i, j in zip(i_s, j_s)]
    relations: list[Relation] = []
    # q-commutation: x_l x_k = q^(i_k j_l - i_l j_k) x_k x_l for k < l (1-based)
    for k in range(1, d + 1):
        for l in range(k + 1, d + 1):
            e = i_s[k - 1] * j_s[l - 1] - i_s[l - 1] * j_s[k - 1]
            relations.append(
                [(Cyclo.one(), (l - 1, k - 1)), (-(q ** e), (k - 1, l - 1))]
            )
    # x_k^beta_(k-1) = q^((1/2) i_k j_k b(b-1) - i_(k+1) j_(k-1)) x_(k-1) x_(k+1)
    for k in range(2, d):
        b = beta[k - 2]
        e = (i_s[k - 1] * j_s[k - 1] * b * (b - 1)) // 2 - i_s[k] * j_s[k - 2]
        relations.append(
            [(Cyclo.one(), (k - 1,) * b), (-(q ** e), (k - 2, k))]
        )
    # q^(r_kl) x_k x_l = x_(k+1)^(b_k - 1) ... x_(l-1)^(b_(l-2) - 1)
    for k in range(1, d + 1):
        for l in range(k + 3, d + 1):
            gammas = {}
            for mm in range(k + 1, l):
                gammas[mm] = beta[mm - 2] - 2 + (1 if mm == k + 1 else 0) + (1 if mm == l - 1 else 0)
            e = 0
            for mm in range(k + 1, l):
                g = gammas[mm]
                e += (i_s[mm - 1] * j_s[mm - 1] * g * (g - 1)) // 2
            for mm in range(k + 2, l):
                for r in range(k + 1, mm):
                    e += i_s[mm - 1] * j_s[r - 1] * gammas[mm] * gammas[r]
            e -= i_s[l - 1] * j_s[k - 1]
            word = tuple(x for mm in range(k + 1, l) for x in (mm - 1,) * gammas[mm])
            relations.append([(q ** e, (k - 1, l - 1)), (-Cyclo.one(), word)])
    names = [f"x{i + 1}" for i in range(d)]
    return Presentation(degrees, relations, names)


def gnk73_presentation() -> Presentation:
    """The four-generator, nine-relation presentation of the G_{7,3} invariants
    (generators a, b, c, d of degrees 15, 9, 21, 12)."""
    one = Cyclo.one()
    r = _coerce_scalar
    relations = [
        [(one, (1, 0)), (one, (0, 1)), (r(4), (3, 3))],
        [(one, (2, 0)), (one, (0, 2)), (r(-2), (1, 1, 1, 1)), (r(-4), (3, 3, 3))],
        [(one, (2, 1)), (one, (1, 2)), (r(-2), (1, 1, 3))],
        [(one, (3, 0)), (r(-1), (0, 3))],
        [(one, (3, 1)), (r(-1), (1, 3))],
        [(one, (3, 2)), (r(-1), (2, 3))],
        [(one, (0, 0)), (one, (1, 1, 3))],
        [(one, (0, 1, 1)), (one, (2, 3)), (one, (1, 3, 3))],
        [(one, (0, 2)), (one, (0, 1, 3)), (r(-1), (1, 1, 1, 1))],
    ]
    return Presentation([15, 9, 21, 12], relations, ["a", "b", "c", "d"])


# ---------------------------------------------------------------------------
# evaluation inside A
# ---------------------------------------------------------------------------


def eval_relations(spec: AlgebraSpec, assignment: list[AlgebraElt], pres: Presentation) -> dict:
    """Substitute assignment[i] for generator i and reduce each relation in A."""
    if len(assignment) != len(pres.gen_degrees):
        raise ParameterError(
            f"assignment length {len(assignment)} != generator count {len(pres.gen_degrees)}"
        )
    for i, (elt, deg) in enumerate(zip(assignment, pres.gen_degrees)):
        if elt.is_zero() or not elt.is_homogeneous() or elt.degree() != deg:
            raise ParameterError(
                f"assignment {i} is not homogeneous of the declared degree {deg}"
            )
    results = []
    for idx, rel in enumerate(pres.relations):
        total = AlgebraElt.zero()
        for c, w in rel:
            prod = AlgebraElt.one()
            for g in w:
                prod = mul(spec, prod, assignment[g])
            total = total + prod.scale(c)
        results.append(
            {
                "relation": pres.pretty_relation(idx),
                "vanishes": total.is_zero(),
                "value": to_text(total),
            }
        )
    return {"all_vanish": all(r["vanishes"] for r in results), "relations": results}


# ---------------------------------------------------------------------------
# truncated quotient dimensions (degreewise linear algebra)
# ---------------------------------------------------------------------------


class _QuotientDP:
    """Degreewise model of (free algebra)/(two-sided ideal of the relations)
    over `field`, with the relation coefficients mapped into it.

    V_d = sum_x x (x) Q_(d - deg x) has one slot per (generator, lower class);
    pcols[d][s] is the class in Q_d of slot s.  Class vectors, relation rows
    and pcols are sparse dicts {index: scalar}."""

    def __init__(self, pres: Presentation, field):
        self.pres = pres
        self.field = field
        self.relations = [[(field.coerce(c), w) for c, w in rel] for rel in pres.relations]
        self.dims = [1]
        self.offsets: list[dict[int, int]] = [{}]  # degree -> generator -> first slot in V_d
        self.pcols: list[list[dict] | None] = [None]  # degree -> V_d projection

    def _left_mul(self, g: int, vec: dict, d_from: int) -> dict:
        """Class of x_g * (class vector in Q_(d_from)) inside Q_(d_from + deg x_g)."""
        d_to = d_from + self.pres.gen_degrees[g]
        pcols = self.pcols[d_to]
        offset = self.offsets[d_to][g]
        axpy = self.field.axpy
        out: dict = {}
        for t, c in vec.items():
            axpy(out, pcols[offset + t], c)
        return out

    def _word_class(self, word: FreeWord, d: int, b: int) -> dict:
        """Class of word * (basis class b of Q_d); the last letter's class is
        read straight off pcols, and the result must not be modified."""
        if not word:
            return {b: self.field.one}
        g = word[-1]
        d += self.pres.gen_degrees[g]
        vec = self.pcols[d][self.offsets[d][g] + b]
        for g in reversed(word[:-1]):
            vec = self._left_mul(g, vec, d)
            d += self.pres.gen_degrees[g]
        return vec

    def extend_to(self, N: int, lower: list[int] | None = None) -> None:
        """Fill in degrees up to N.  Given `lower`, a list of lower bounds on
        the dims over this field, degree d's relation rows are read only until
        their rank reaches vdim - lower[d] (`rref`'s `rank`): the rank of all of
        them is vdim - dim Q_d, at most that value, so the rows left unread lie
        in the span read, and the RREF, pcols and dims are those of all the
        rows.  The sparsest rows are read first: they are the cheapest to
        reduce, and the RREF depends only on the span of the rows, so their
        order changes the cost, not the result."""
        field = self.field
        one, neg, normalize = field.one, field.neg, field.normalize
        rel_degrees = [self.pres.word_degree(rel[0][1]) for rel in self.relations]
        while len(self.dims) <= N:
            d = len(self.dims)
            offsets = {}
            vdim = 0
            for g, e in enumerate(self.pres.gen_degrees):
                if e <= d:
                    offsets[g] = vdim
                    vdim += self.dims[d - e]
            self.offsets.append(offsets)
            rel_rows: list[dict] = []
            for rel, r in zip(self.relations, rel_degrees):
                if r > d:
                    continue
                for b in range(self.dims[d - r]):
                    # the products are summed unreduced, as in `mul_cols`
                    row: dict = {}
                    for c, w in rel:
                        base = offsets[w[0]]
                        for t, z in self._word_class(w[1:], d - r, b).items():
                            s = base + t
                            row[s] = row[s] + c * z if s in row else c * z
                    row = normalize(row)
                    if row:
                        rel_rows.append(row)
            rank = None if lower is None else vdim - lower[d]
            rel_rows.sort(key=len)
            red, pivots = rref(rel_rows, field, rank) if rel_rows else ([], [])
            reduced = dict(zip(pivots, red))
            quot_index = {s: i for i, s in enumerate(s for s in range(vdim) if s not in reduced)}
            pcols: list[dict] = []
            for s in range(vdim):
                if s in quot_index:
                    pcols.append({quot_index[s]: one})
                else:
                    # a reduced row is 1 at its pivot and otherwise lives on free slots
                    pcols.append({quot_index[s2]: neg(z) for s2, z in reduced[s].items() if s2 != s})
            self.dims.append(vdim - len(pivots))
            self.pcols.append(pcols)


def truncated_quotient_dims(
    pres: Presentation, N: int, field=EXACT, lower: list[int] | None = None
) -> list[int]:
    """dim of (free algebra modulo the relation ideal) in each degree 0..N over
    `field`: exact over the default Q(w_m), and an upper bound on the exact
    dims over a `PrimeField` that the relation coefficients map into.

    `lower`, when given, must hold lower bounds on the exact dims through N
    (the rank of the generators' products, when every relation vanishes);
    each degree's elimination then stops once the dim has come down to
    lower[d].  The dims over `field` are at least the exact ones, so they can
    come down no further, and the result is the same as without `lower`."""
    dp = _QuotientDP(pres, field)
    dp.extend_to(N, lower)
    return dp.dims[: N + 1]


def _prime_field(pres: Presentation) -> PrimeField:
    """The F_p that every relation coefficient maps into."""
    return PrimeField.for_scalars(c for rel in pres.relations for c, _ in rel)


def verify_presentation(
    spec: AlgebraSpec,
    G: GroupSpec,
    pres: Presentation,
    N: int,
) -> dict:
    """Relations vanish under the generator assignment AND the quotient
    F/(R) has the Molien dimensions through N.

    The quotient dimensions Q_d are exact, and are found without the exact DP
    when a two-sided bound pins them.  Reducing the relations mod p spans an
    ideal of no larger dimension, so the F_p quotient dimension U_d is at least
    Q_d.  When every relation vanishes, F_d/I_d maps onto the span of generator
    products in A_d, whose exact rank L_d is then at most Q_d.  The lower bound
    B_d is the rank of those products with each degree's span stopped at the
    Molien count (`subalgebra_spans` with `bound`): B_d = min(L_d, dim A^G_d)
    when the counts are right, and B_d <= L_d whatever they are, as the
    stopped spans lie in the full ones.  If B_d = U_d at every degree through
    N, Q_d = U_d ("certified_mod_p"); otherwise the exact DP runs ("exact").
    Neither bound assumes that the generators generate, and neither needs the
    Molien series: a count too small only lowers B_d, so the certificate
    misses and the exact DP decides.

    B is computed first, and the F_p DP takes it as `lower`: as
    B_d <= Q_d <= U_d, each degree's elimination stops once U_d comes down to
    B_d, and then every row left unread lies in the span read, so U_d and the
    DP state are those of the full elimination.  If U_d never comes down to
    B_d, every row is read and the certificate misses as it would anyway.  The
    exact fallback DP reads every row."""
    target = molien(spec, G, N)
    assignment = generator_set(spec, G).generators
    evaluation = eval_relations(spec, assignment, pres)
    method = "exact"
    if evaluation["all_vanish"]:
        lower = [span.rank for span in subalgebra_spans(spec, assignment, N, bound=target)]
        quotient = truncated_quotient_dims(pres, N, _prime_field(pres), lower)
        if lower == quotient:
            method = "certified_mod_p"
    if method == "exact":
        quotient = truncated_quotient_dims(pres, N)
    mismatches = [d for d in range(N + 1) if quotient[d] != target[d]]
    return {
        "ok": evaluation["all_vanish"] and not mismatches,
        "relations_vanish": evaluation["all_vanish"],
        "evaluation": evaluation,
        "first_dimension_mismatch": mismatches[0] if mismatches else None,
        "quotient_dims": quotient,
        "invariant_dims": target,
        "N": N,
        "quotient_method": method,
    }


def discover_relations(spec: AlgebraSpec, gens: list[AlgebraElt], degree: int) -> list[Relation]:
    """Nullspace of the word-evaluation map at one degree: all linear dependencies
    among degree-`degree` products of the generators (no completeness claim)."""
    degrees = [g.degree() for g in gens]
    words: list[list[FreeWord]] = [[()]]
    for d in range(1, degree + 1):
        level: list[FreeWord] = []
        for g, e in enumerate(degrees):
            if e <= d:
                level.extend((g,) + w for w in words[d - e])
        words.append(level)
    target_words = words[degree]
    if not target_words:
        return []
    # kernel of (words -> A_degree): one sparse row {word index: coefficient}
    # per monomial, so solution vectors index words
    rows: dict = {}
    for idx, w in enumerate(target_words):
        prod = AlgebraElt.one()
        for g in w:
            prod = mul(spec, prod, gens[g])
        for mon, c in prod.terms.items():
            rows.setdefault(mon, {})[idx] = c
    kernel = nullspace([rows[mon] for mon in sorted(rows)], len(target_words))
    out: list[Relation] = []
    for vec in kernel:
        rel = [(c, target_words[i]) for i, c in enumerate(vec) if not c.is_zero()]
        out.append(rel)
    return out
