"""Reduced Groebner bases via Buchberger's algorithm.

The engine processes critical pairs in nondecreasing S-degree, the degree
``ctx.degree`` of the pair's lcm, with ties broken by the monomial order on
the lcm and then on the two leading monomials, so output is deterministic
for fixed input.  ``ctx.degree`` is the total degree, except for the
("elim", k, base) order, where it is the degree in the kept variables: the
first k variables have weight 0 (see ``RingContext``).  Pairs are pruned
with the coprime (product) criterion and the chain criterion; the
Buchberger S-polynomial property test in the suite guards both.

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

Hilbert-driven stop (Traverso, "Hilbert functions and the Buchberger
algorithm", J. Symbolic Comput. 22, 1996).  ``buchberger`` may be given the
Hilbert series of S/I, known in advance.  After each new basis element G the
engine compares HS(S/in(G)) with it and, once they are equal, drops the
pairs still queued.  This is exact for homogeneous I, which ``Ideal``
enforces: in(G) is contained in in(I), both are monomial ideals, and
dim S_s/in(I)_s = dim S_s/I_s in every degree s, so equal series force
in(G) = in(I) degree by degree.  G is then already a Groebner basis, every
dropped pair would have reduced to zero, and the reduced basis is the same.
For an ("elim", k, base) order the series is that of the elimination ideal
I ∩ F[x_(k+1), ...], which must be homogeneous (I is homogeneous in the
kept variables only), and only the leading monomials free of the first k
variables count: they are those of the basis elements lying in that ideal,
so the same argument applies to them, and only those elements of the
result are guaranteed.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import add, itemgetter, le, sub

from .core import ContextMismatchError, Polynomial

__all__ = [
    "GroebnerBasis",
    "buchberger",
    "normal_form",
    "s_polynomial",
    "standard_monomials",
]


def _mono_lcm(a, b):
    return tuple(map(max, a, b))


def _mono_divides(a, b):
    return all(map(le, a, b))


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

    Basis elements are stored monic, as their leading monomials and keys
    and their tails of keyed triples sorted largest first.  ``_admit``
    appends each element, generator (lowest ``ctx.degree`` first) or
    S-polynomial, only as its nonzero remainder modulo the earlier ones, so
    no leading monomial is divisible by an earlier one and ``lms`` holds no
    duplicate.  ``run()`` processes the queued pairs until none is left.
    With a target ``series`` the queue is dropped as soon as HS(S/in(G))
    reaches it (see the module docstring).

    The counters are plain ints for tests and profiling: pairs popped, pairs
    skipped by the coprime and chain criteria, pairs whose S-polynomial
    reduced to zero (a generator that reduces to zero is not counted), and
    whether the series stop dropped queued pairs.
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
        self.pairs = []
        self.pending = set()
        self.pairs_popped = 0
        self.coprime_skips = 0
        self.chain_skips = 0
        self.zero_reductions = 0
        self.series_stop = False
        self.series = series
        self.reached = False
        if series is not None:
            order = ctx.order
            self.eliminated = (order[1] if isinstance(order, tuple)
                               and order[0] == "elim" else 0)
            # leading monomials free of the eliminated variables, without
            # them, and the numerator of their quotient's Hilbert series
            self.free_leads = []
            self.numerator = [[1]]
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
        for i in range(j):
            lcm = _mono_lcm(self.lms[i], lm)
            entry = ((self.degree(lcm), self.key(lcm), self.lead_keys[i],
                      lm_key), i, j)
            heappush(self.pairs, entry)
            self.pending.add((i, j))
        if self.series is not None:
            self._add_to_series(lm)
        return terms

    def _add_to_series(self, lm):
        """Update HS(S'/in(G)), S' the ring of the variables that are kept,
        for a new leading monomial m: N(M + (m)) = N(M) - t^deg(m) N(M : m)
        for the numerators over (1-t)^nvars(S')."""
        k = self.eliminated
        if any(lm[:k]):
            return
        # ideals imports this module, so import from it at run time
        from .ideals import (HilbertSeries, _add_shifted, _minimalize,
                             _series_numerator)

        m = lm[k:]
        colon = _minimalize([tuple(map(sub, _mono_lcm(g, m), m))
                             for g in self.free_leads])
        self.free_leads.append(m)
        self.numerator = _add_shifted(self.numerator,
                                      _series_numerator(colon, len(m)),
                                      0, sum(m), -1)
        self.reached = (HilbertSeries(self.numerator[0], len(m))
                        == self.series)

    def run(self):
        pairs = self.pairs
        pending = self.pending
        lms = self.lms
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
            if not any(map(min, lm_i, lm_j)):
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
        elements = []
        for lm, tail in zip(leads, tails):
            g = Polynomial.__new__(Polynomial)
            g.ctx = ctx
            g.terms = {lm: 1, **{m: c for m, c, _ in tail}}
            elements.append(g)
        basis.elements = tuple(elements)
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


def buchberger(gens, ctx=None, series=None) -> GroebnerBasis:
    """Compute the reduced Groebner basis of the ideal generated by gens.

    ``series``, when given, is the HilbertSeries of S/I for the homogeneous
    ideal I = (gens); for an ("elim", k, base) order it is the series of the
    elimination ideal's quotient in the remaining variables.  The run then
    stops once the leading monomials reach it (see the module docstring).
    """
    gens = list(gens)
    if ctx is None:
        if not gens:
            raise ValueError("cannot infer ring context from empty input")
        ctx = gens[0].ctx
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
    res = Polynomial.__new__(Polynomial)
    res.ctx = ctx
    res.terms = {m: c for m, c, _ in out}
    return res


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
