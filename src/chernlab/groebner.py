"""Reduced Groebner bases via Buchberger's algorithm.

The engine processes critical pairs in nondecreasing S-degree, the degree
``ctx.degree`` of the pair's lcm, with ties broken by the monomial order on
the lcm and then on the two leading monomials, so output is deterministic
for fixed input.  ``ctx.degree`` is the total degree, or the weighted
degree of a ("ydeg", k, base, w) order (see ``RingContext``).  Pairs are
pruned with the chain criterion and the generalized product criterion:
with c the gcd of the two elements' contents, the monomials that divide
every term, f = c f' and g = c g', and S(f, g) = c S(f', g') reduces to
zero when the leading monomials of f' and g' are coprime (Buchberger's
first criterion applied to f' and g'); c = 1 is the plain coprime
criterion.  The Buchberger S-polynomial property test in the suite guards
both.

Every element enters the engine by one step (Gebauer and Moeller, "On an
installation of Buchberger's algorithm", J. Symbolic Comput. 6, 1988): it
is reduced against the elements admitted so far and its remainder, if not
zero, is appended monic.  Generators are admitted so, lowest degree first,
before any pair; S-polynomials after.  A remainder's leading monomial is
divisible by no earlier one, so no two elements ever share a leading
monomial, and no pair is queued for a duplicate.

For input homogeneous in that degree the schedule makes the basis exact
degree by degree: once every pair of S-degree <= s has been processed, the
leading terms of degree <= s are final.

Modules.  In a ring with positions (``core.RingContext``) the input is a
submodule N of the free module F on the positions, each element linear in
them, and the engine keeps each lead's position: it queues a pair only
when both leads sit at the same position, or, in a plain ring, where no
lead has one (module Groebner bases: Kreuzer-Robbiano, Computational
Commutative Algebra 1, ch. 2).  Leads at two positions have no
S-polynomial in F, and the elements' products with positions, of degree 2
in them, are not elements of N.

Hilbert-driven stop (Traverso, "Hilbert functions and the Buchberger
algorithm", J. Symbolic Comput. 22, 1996).  ``buchberger`` may be given the
Hilbert series of S/I, or of F/N in a module ring, known in advance.  After
each new basis element G the engine compares HS(S/in(G)) with it and, once
they are equal, drops the pairs still queued.  The two are compared as
integer lists, numerators over (1-t)^r with r the number of variables that
are not positions: the engine keeps the numerator of HS(S/in(G)) up to
date, one leading monomial at a time, and lifts the target's numerator to
(1-t)^r once (``HilbertSeries.lift``).  The count is per position: a new
lead m p takes its colon over the leads at p, stripped of p.  This is
exact for homogeneous I, which ``Ideal`` enforces: in(G) is contained in
in(I), both are monomial, and dim S_s/in(I)_s = dim S_s/I_s in every
degree s, so equal series force in(G) = in(I) degree by degree.  G is then
already a Groebner basis, every dropped pair would have reduced to zero,
and the reduced basis is the same.

The numerators of the Hilbert series of monomial ideals and submodules
(``series_numerator``, ``lead_numerator``) are computed here, next to the
engine that stops on them; ``ideals`` and ``hilbert`` import them, and
this module imports only ``core``.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import add, itemgetter, le, sub

from .core import ContextMismatchError, Polynomial

__all__ = [
    "GroebnerBasis",
    "add_shifted",
    "buchberger",
    "lead_numerator",
    "minimalize",
    "normal_form",
    "s_polynomial",
    "series_numerator",
    "standard_monomials",
]


def _mono_lcm(a, b):
    return tuple(map(max, a, b))


def _mono_divides(a, b):
    return all(map(le, a, b))


def minimalize(monos):
    """Minimal generators of the monomial ideal generated by monos."""
    uniq = sorted(set(monos), key=lambda m: (sum(m), m))
    out = []
    for m in uniq:
        if not any(_mono_divides(g, m) for g in out):
            out.append(m)
    return out


def add_shifted(a, b, i, j, sign):
    """a + sign * t^i s^j * b, for bigraded numerators: lists of rows,
    indexed [t-degree][s-degree]."""
    out = list(a)
    out += [[]] * (i + len(b) - len(out))
    for ii, row in enumerate(b, i):
        target = out[ii] + [0] * (j + len(row) - len(out[ii]))
        for jj, c in enumerate(row, j):
            target[jj] += sign * c
        out[ii] = target
    return out


def series_numerator(gens, r, k=0):
    """Numerator of HS(S/I) over (1-t)^k (1-s)^(r-k) for a minimal monomial
    generating set, where the first k variables have weight t and the others
    weight s.  The result is indexed [t-degree][s-degree]; with k = 0 it has
    the one row num[0], the numerator of the standard series over (1-s)^r.

    Recursion on a variable pivot x_u (the most frequent variable, ties by
    index):  N(I) = N(I + (x_u)) + w(x_u) * N(I : x_u), w the pivot's weight
    (Bigatti, "Computation of Hilbert-Poincare series", JPAA 1997).
    """
    if not gens:
        return [[1]]
    unit = (0,) * r
    if unit in gens:
        return [[0]]
    if all(sum(1 for e in m if e) == 1 for m in gens):
        # pairwise coprime variable powers: product of the 1 - w(m)
        num = [[1]]
        for m in gens:
            e = max(m)
            shift = (e, 0) if m.index(e) < k else (0, e)
            num = add_shifted(num, num, *shift, -1)
        return num
    # Pivot on the most frequent variable (ties: smallest index) among
    # mixed-support generators; pivoting on a variable that only occurs in a
    # pure power would fail to shrink the "+ pivot" branch.
    counts = [0] * r
    for m in gens:
        if sum(1 for e in m if e) > 1:
            for i, e in enumerate(m):
                if e:
                    counts[i] += 1
    u = max(range(r), key=lambda i: (counts[i], -i))
    pivot = tuple(1 if i == u else 0 for i in range(r))
    # Both branches stay minimal without a full pass.  The generators free
    # of x_u are minimal and x_u divides none of them.  Lowering the x_u
    # exponent keeps the others pairwise minimal, and only a lowered
    # generator that is now free of x_u can divide one that always was.
    free = [m for m in gens if not m[u]]
    lowered = [m[:u] + (m[u] - 1,) + m[u + 1:] for m in gens if m[u]]
    divisors = [m for m in lowered if not m[u]]
    plus = free + [pivot]
    colon = lowered + [m for m in free
                       if not any(_mono_divides(g, m) for g in divisors)]
    return add_shifted(series_numerator(plus, r, k),
                       series_numerator(colon, r, k),
                       *((1, 0) if u < k else (0, 1)), 1)


def lead_numerator(leads, ctx, k=0):
    """``series_numerator`` of the monomial ideal that ``leads`` generate,
    or in a ring with positions of the monomial submodule: the sum over the
    positions of the numerators of the leads there, stripped of the
    position, each times s, the position's degree.  It is over
    (1-t)^k (1-s)^(n-k), n = ``ctx.base_nvars``; rank 0 gives 0."""
    if ctx.positions is None:
        return series_numerator(minimalize(leads), ctx.nvars, k)
    num, r = [[]], ctx.base_nvars
    for i in ctx.positions:
        part = minimalize([ctx.strip(m) for m in leads if m[i]])
        num = add_shifted(num, series_numerator(part, r, k), 0, 1, 1)
    return num


def _reduce_terms(terms, key, lms, lead_keys, degs, tails, p, reducer_of):
    """Full normal form of a term dict against monic reducers, as
    (monomial, coefficient, key) triples, largest first.

    Monomials are processed from largest to smallest via a heap of negated
    keys; each reduction step can only introduce strictly smaller monomials,
    so the loop terminates with a remainder none of whose terms is divisible
    by any reducer leading monomial.

    ``key`` gives the keys of the input terms.  Every other key is a sum,
    since the key is linear: the term t of a reducer's tail, times the
    quotient q = m / lm of a monomial m by the reducer's leading monomial,
    has the key key(m) - key(lm) + key(t).  ``reducer_of`` caches the first
    reducer whose leading monomial divides a monomial, or ~n when none of
    the first n does; it stays valid while reducers are only appended.
    """
    work = dict(terms)
    heap = [(-key(m), m) for m in work]
    heapify(heap)
    out = []
    nred = len(lms)
    while heap:
        neg, m = heappop(heap)
        c = work.pop(m, None)
        if c is None:
            continue
        red = reducer_of.get(m, -1)
        if red < 0 and ~red < nred:
            mdeg = sum(m)
            for idx in range(~red, nred):
                if degs[idx] <= mdeg and all(map(le, lms[idx], m)):
                    red = idx
                    break
            else:
                red = ~nred
            reducer_of[m] = red
        if red < 0:
            out.append((m, c, -neg))
            continue
        q = tuple(map(sub, m, lms[red]))
        neg_q = neg + lead_keys[red]
        for tm, tc, tk in tails[red]:
            mm = tuple(map(add, q, tm))
            prev = work.get(mm)
            if prev is None:
                v = (-c * tc) % p
                if v:
                    work[mm] = v
                    heappush(heap, (neg_q - tk, mm))
            else:
                v = (prev - c * tc) % p
                if v:
                    work[mm] = v
                else:
                    del work[mm]
    return out


class _Engine:
    """Incremental Buchberger run over term dicts.

    Basis elements are stored monic, as their leading monomials and keys,
    their tails of keyed triples sorted largest first and their contents,
    the componentwise minimum of their monomials; ``at`` maps each
    position, None in a plain ring, to the elements whose leads sit there.
    ``_admit`` appends each element, generator (lowest ``ctx.degree``
    first) or S-polynomial, only as its nonzero remainder modulo the
    earlier ones, so no leading monomial is divisible by an earlier one and
    ``lms`` holds no duplicate, and pairs it with the elements at its
    position.  ``run()`` processes the queued pairs until none is left.
    With a target ``series`` the queue is dropped as soon as HS(S/in(G))
    reaches it (see the module docstring).

    The counters are plain ints for tests and profiling: pairs popped, pairs
    skipped by the product criterion (``coprime_skips``, generalized as in
    the module docstring) and by the chain criterion, pairs whose
    S-polynomial reduced to zero (a generator that reduces to zero is not
    counted), and whether the series stop dropped queued pairs.
    """

    def __init__(self, gens, ctx, series=None):
        self.ctx = ctx
        self.p = ctx.characteristic
        self.key = ctx.sort_key
        self.degree = ctx.degree
        self.reducer_of = {}
        self.lms = []
        self.lead_keys = []
        self.degs = []
        self.tails = []
        self.contents = []
        self.at = {}
        self.pairs = []
        self.pending = set()
        self.pairs_popped = 0
        self.coprime_skips = 0
        self.chain_skips = 0
        self.zero_reductions = 0
        self.series_stop = False
        self.target = None
        self.reached = False
        if series is not None:
            # the numerator of HS(S/in(G)) and the target's over the same
            # (1-t)^r, trimmed
            self.numerator = lead_numerator((), ctx)
            self.target = _trimmed(series.lift(ctx.base_nvars))
        for g in sorted(gens, key=lambda g: max(map(ctx.degree, g.terms),
                                                default=0)):
            self._admit(g.terms)

    def _admit(self, terms):
        """Reduce a term dict against the elements so far and append its
        remainder, made monic, unless it is zero; return the remainder."""
        terms = _reduce_terms(terms, self.key, self.lms, self.lead_keys,
                              self.degs, self.tails, self.p, self.reducer_of)
        if not terms:
            return terms
        lm, lc, lm_key = terms[0]
        if lc != 1:
            inv = pow(lc, -1, self.p)
            terms = [(m, c * inv % self.p, k) for m, c, k in terms]
        j = len(self.lms)
        self.lms.append(lm)
        self.lead_keys.append(lm_key)
        self.degs.append(sum(lm))
        self.tails.append(terms[1:])
        self.contents.append(tuple(map(min, zip(*(m for m, _, _ in terms)))))
        same = self.at.setdefault(
            next((i for i in self.ctx.positions or () if lm[i]), None), [])
        for i in same:
            lcm = _mono_lcm(self.lms[i], lm)
            entry = ((self.degree(lcm), self.key(lcm), self.lead_keys[i],
                      lm_key), i, j)
            heappush(self.pairs, entry)
            self.pending.add((i, j))
        if self.target is not None:
            self._add_to_series(lm, same)
        same.append(j)
        return terms

    def _add_to_series(self, m, same):
        """Update HS(S/in(G)) for a new leading monomial m, the last in
        ``lms``, at the position of the elements ``same``:
        N(M + (m)) = N(M) - t^deg(m) N(M : m) for the numerators over
        (1-t)^base_nvars, the colon over the leads at m's position with the
        position stripped."""
        colon = minimalize([self.ctx.strip(tuple(map(sub, _mono_lcm(
            self.lms[i], m), m))) for i in same])
        self.numerator = add_shifted(self.numerator, series_numerator(
            colon, self.ctx.base_nvars), 0, sum(m), -1)
        self.reached = _trimmed(self.numerator[0]) == self.target

    def run(self):
        pairs = self.pairs
        pending = self.pending
        lms = self.lms
        contents = self.contents
        while pairs:
            if self.reached:
                self.series_stop = True
                pairs.clear()
                pending.clear()
                break
            _, i, j = heappop(pairs)
            self.pairs_popped += 1
            pending.discard((i, j))
            lm_i = lms[i]
            lm_j = lms[j]
            if (tuple(map(min, lm_i, lm_j))
                    == tuple(map(min, contents[i], contents[j]))):
                self.coprime_skips += 1
                continue
            lcm = _mono_lcm(lm_i, lm_j)
            # chain criterion
            skip = False
            for k in range(len(lms)):
                if k == i or k == j:
                    continue
                if all(map(le, lms[k], lcm)):
                    a = (i, k) if i < k else (k, i)
                    b = (j, k) if j < k else (k, j)
                    if a not in pending and b not in pending:
                        skip = True
                        break
            if skip:
                self.chain_skips += 1
                continue
            if not self._admit(self._spair_terms(i, j, lcm)):
                self.zero_reductions += 1

    def _spair_terms(self, i, j, lcm):
        """The S-polynomial of elements i and j as a term dict: their tails
        times the quotients of lcm, since their leading terms cancel."""
        p = self.p
        qi = tuple(map(sub, lcm, self.lms[i]))
        qj = tuple(map(sub, lcm, self.lms[j]))
        out = {tuple(map(add, qi, m)): c for m, c, _ in self.tails[i]}
        for m, c, _ in self.tails[j]:
            mm = tuple(map(add, qj, m))
            v = (out.get(mm, 0) - c) % p
            if v:
                out[mm] = v
            else:
                out.pop(mm, None)
        return out


def _trimmed(coefficients):
    """The coefficient list without its trailing zeros."""
    out = list(coefficients)
    while out and not out[-1]:
        out.pop()
    return out


def _interreduce(engine):
    """Turn the engine's basis, which has the Groebner property, into the
    reduced basis: (leading monomials, tails), sorted by leading monomial,
    each tail keyed triples ordered largest first.

    Only elements with minimal leading monomials are kept.  Each kept tail is
    reduced against all kept elements: a tail term lies below its own leading
    monomial, so the element itself never applies.  Engine elements are
    already monic.
    """
    kept = []
    for i in sorted(range(len(engine.lms)), key=engine.lead_keys.__getitem__):
        lm = engine.lms[i]
        if not any(_mono_divides(engine.lms[k], lm) for k in kept):
            kept.append(i)
    lms, lead_keys, degs, tails = ([part[i] for i in kept] for part in (
        engine.lms, engine.lead_keys, engine.degs, engine.tails))
    reducer_of = {}
    return lms, [_reduce_terms({m: c for m, c, _ in tail}, engine.key, lms,
                               lead_keys, degs, tails, engine.p, reducer_of)
                 for tail in tails]


class GroebnerBasis:
    """A reduced Groebner basis: monic elements sorted by leading monomial.

    ``_lead`` holds the leading monomials and ``_tails`` each element's
    other terms as (monomial, coefficient, key) triples, largest first.
    """

    __slots__ = ("ctx", "elements", "_lead", "_tails")

    def __init__(self, ctx, elements):
        self.ctx = ctx
        self.elements = tuple(elements)
        keyed = [sorted(((m, c, ctx.sort_key(m)) for m, c in g.terms.items()),
                        key=itemgetter(2), reverse=True)
                 for g in self.elements]
        self._lead = tuple(terms[0][0] for terms in keyed)
        self._tails = tuple(terms[1:] for terms in keyed)

    @classmethod
    def _from_parts(cls, ctx, leads, tails):
        """The basis of monic elements lm + tail, from its leading monomials
        and its tails as keyed triples ordered largest first, both already
        sorted by leading monomial."""
        basis = cls.__new__(cls)
        basis.ctx = ctx
        basis._lead = tuple(leads)
        basis._tails = tuple(tails)
        basis.elements = tuple(
            Polynomial.trusted(ctx, {lm: 1, **{m: c for m, c, _ in tail}})
            for lm, tail in zip(leads, tails))
        return basis

    def lead_monomials(self):
        return self._lead

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __eq__(self, other):
        if not isinstance(other, GroebnerBasis):
            return NotImplemented
        return self.ctx == other.ctx and self.elements == other.elements

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.elements)
        return f"GroebnerBasis([{gens}])"


def buchberger(gens, ctx, series=None) -> GroebnerBasis:
    """Compute the reduced Groebner basis in ``ctx`` of the ideal generated
    by gens, which must all lie in ``ctx``.

    ``series``, when given, is the HilbertSeries of S/I for the homogeneous
    ideal I = (gens), or of F/N for the submodule N = (gens) of a module
    ring.  The run then stops once the leading monomials reach it (see the
    module docstring).
    """
    gens = list(gens)
    for g in gens:
        if g.ctx != ctx:
            raise ContextMismatchError("generator from a different ring context")
    engine = _Engine(gens, ctx, series)
    engine.run()
    return GroebnerBasis._from_parts(ctx, *_interreduce(engine))


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """S-polynomial of two nonzero polynomials (leading terms cancelled)."""
    if f.ctx != g.ctx:
        raise ContextMismatchError("operands come from different ring contexts")
    if f.is_zero() or g.is_zero():
        return Polynomial.zero(f.ctx)
    f = f.monic()
    g = g.monic()
    lf = f.leading_monomial()
    lg = g.leading_monomial()
    lcm = _mono_lcm(lf, lg)
    qf = tuple(a - b for a, b in zip(lcm, lf))
    qg = tuple(a - b for a, b in zip(lcm, lg))
    ctx = f.ctx
    mf = Polynomial(ctx, {qf: 1})
    mg = Polynomial(ctx, {qg: 1})
    return mf * f - mg * g


def normal_form(f: Polynomial, basis: GroebnerBasis) -> Polynomial:
    """Remainder of f under multivariate division by the basis.

    For a (reduced) Groebner basis the result is the unique normal form, so
    ``normal_form(f, G) == 0`` decides ideal membership and the operation is
    idempotent.
    """
    if f.ctx != basis.ctx:
        raise ContextMismatchError("polynomial and basis contexts differ")
    if f.is_zero() or not basis.elements:
        return f
    ctx = basis.ctx
    key = ctx.sort_key
    lms = basis._lead
    out = _reduce_terms(f.terms, key, lms, [key(m) for m in lms],
                        [sum(m) for m in lms], basis._tails,
                        ctx.characteristic, {})
    return Polynomial.trusted(ctx, {m: c for m, c, _ in out})


def standard_monomials(basis: GroebnerBasis, max_degree: int):
    """Monomials of each degree 0..max_degree not divisible by any leading
    monomial of the basis: a vector-space basis of the quotient per degree.

    Every standard monomial of degree s+1 is a variable multiple of a
    standard monomial of degree s, so each degree's candidates are generated
    from the one below and filtered by divisibility.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    ctx = basis.ctx
    lead = basis.lead_monomials()
    unit = ctx.unit_monomial()
    current = [] if unit in lead else [unit]
    per_degree = [current]
    for _ in range(max_degree):
        candidates = {m[:u] + (m[u] + 1,) + m[u + 1:]
                      for m in current for u in range(ctx.nvars)}
        current = [m for m in sorted(candidates, key=ctx.sort_key)
                   if not any(_mono_divides(lm, m) for lm in lead)]
        per_degree.append(current)
    return per_degree
