"""Seeded inputs for the three workloads, with their expected values.

Every job is a tuple (kind, args, expect).  ``args`` is plain data the
package receives; ``expect`` comes from checks.py, through derive(), or
from how the input was built.  The make-up of a round (how many jobs of
which kind and size) is fixed; the seed only picks the details inside
each size class, so the cost of a round barely moves between seeds.
"""

from __future__ import annotations

import json
import os
import time
from fractions import Fraction
from itertools import combinations

import checks as K


derive_s = 0.0  # seconds spent in derive(); worker.py leaves them out of setup_s


def derive(fn, *args):
    """An expected value from checks.py.  Deriving it is the benchmark's
    own checking work, not input generation, so its time is kept apart."""
    global derive_s
    start = time.perf_counter()
    value = fn(*args)
    derive_s += time.perf_counter() - start
    return value


def _fresh(rng, seen, draw):
    while True:
        item = draw()
        if item not in seen:
            seen.add(item)
            return item


def _sample_set(rng, universe, k):
    return frozenset(rng.sample(list(universe), k))


# ---- certify ------------------------------------------------------------


def _rational_roots(rng, count, negative, spread=40):
    """Distinct rationals u/v in lowest terms, as (u, v) pairs."""
    seen = set()
    out = []
    while len(out) < count:
        v = rng.randint(1, 3)
        u = rng.randint(-spread * v, 0 if negative else spread * v)
        if u == 0 or Fraction(u, v) in seen:
            continue
        if Fraction(u, v).denominator != v:
            continue
        seen.add(Fraction(u, v))
        out.append((u, v))
    return out


def _root_job(rng, degree, repeated, quadratic, negative=False):
    """Only negative roots keep every coefficient of a real-rooted result
    positive, so that its text does not start with a minus sign, which
    the CLI would read as an option."""
    linear = degree - 2 if quadratic else degree
    if repeated:
        distinct = _rational_roots(rng, linear - 3, negative)
        doubled = rng.sample(distinct, 2)
        roots = distinct + doubled + doubled[:1]  # multiplicities 3 and 2
    else:
        distinct = _rational_roots(rng, linear, negative)
        roots = distinct
    quad = None
    if quadratic:
        b = rng.randint(-12, 12)
        c = b * b // 4 + rng.randint(1, 30)  # b^2 < 4c: no real root
        quad = (c, b, 1)
    coeffs = K.from_roots(roots, quad)
    expect = {
        "holds": not quadratic,
        "degree": degree,
        "squarefree_degree": len(distinct) + (2 if quadratic else 0),
        "distinct_real_roots": len(distinct),
    }
    return ("roots", (tuple(coeffs),), expect)


def _pair_job(rng, s, extra, variant, negative=False):
    vals = sorted(rng.sample(range(-90, 0 if negative else 91), 2 * s + extra), reverse=True)
    beta = vals[0::2]
    alpha = vals[1::2]
    if variant == "shared":
        j = rng.randrange(s)
        alpha[j] = beta[j]  # weak interlacing: p and q share a root
    elif variant == "broken":
        # move one root of p below every root of q: one gap of q loses
        # its root of p and the bottom gap gets two
        j = rng.randrange(s - 1)
        alpha[j] = min(vals) - rng.randint(1, 9)
    expect = derive(K.interlaces_by_construction, alpha, beta)
    if variant == "broken":
        assert not expect
    p = K.from_roots([(a, 1) for a in alpha])
    q = K.from_roots([(b, 1) for b in beta])
    return ("pair", (tuple(p), tuple(q)), {"interlaces": expect})


def certify_jobs(rng):
    jobs = []
    seen = set()
    for i in range(40):
        n = (14, 16, 18, 20, 22)[i % 5]
        k = round(0.7 * (n - 1))
        n, t = _fresh(rng, seen, lambda: (n, _sample_set(rng, range(1, n), k)))
        jobs.append(("ant", (n, t), {
            "size": derive(K.descent_class_size, n, t), "degree": len(t)}))
    for i in range(20):
        n, r = ((6, 2), (7, 2), (8, 2), (6, 3), (7, 3))[i % 5]
        k = n // 2 + 1
        _, _, t = _fresh(rng, seen, lambda: (n, r, _sample_set(rng, range(1, n + 1), k)))
        jobs.append(("colored", (n, r, t), {
            "base_size": derive(K.descent_class_size, n, t),
            "size": derive(K.colored_class_size, n, r, t)}))
    for i in range(40):
        degree = (10, 12, 14, 16)[i % 4]
        variant = (i // 4) % 4
        jobs.append(_root_job(rng, degree, variant in (1, 3), variant in (2, 3)))
    for i in range(24):
        s = (3, 4, 5)[i % 3]
        extra = (i // 3) % 2
        variant = ("plain", "shared", "broken")[(i // 6) % 3] if i < 18 else "plain"
        jobs.append(_pair_job(rng, s, extra, variant))
    for fam, ks in (("A", range(3, 15)), ("B", range(3, 15)), ("D", range(4, 15))):
        for k in ks:
            jobs.append(("symdec", (fam, k), {"h": derive(K.nc_h, fam, k)}))
    rng.shuffle(jobs)
    return jobs


# ---- structures ---------------------------------------------------------

ORACLE_TYPES = [("A", k) for k in range(2, 7)] + [("B", k) for k in range(2, 6)] \
    + [("D", k) for k in range(3, 6)]


def boolean_sets(n):
    return [frozenset(c) for size in range(n + 1)
            for c in combinations(range(1, n + 1), size)]


def colored_sets(n, r):
    out = []
    for size in range(n + 1):
        for points in combinations(range(1, n + 1), size):
            for code in range(r ** size):
                colors = [(code // r ** i) % r for i in range(size)]
                out.append(frozenset(zip(points, colors)))
    return out


def face_sets(facets):
    faces = set()
    for f in facets:
        for size in range(len(f) + 1):
            faces.update(frozenset(c) for c in combinations(sorted(f), size))
    return list(faces)


def random_facets(rng, dim, nverts, count):
    pool = list(combinations(range(1, nverts + 1), dim + 1))
    return tuple(sorted(rng.sample(pool, min(len(pool), count))))


def poset_sets(family, params):
    """The benchmark's own copy of a poset: its sets, and its rank."""
    if family == "boolean":
        return boolean_sets(*params), params[0]
    if family == "colored":
        return colored_sets(*params), params[0]
    return face_sets(params[0]), len(params[0][0])


def simplicial_expect(sets, rank):
    """Expected invariants of a simplicial poset given as its sets."""
    h = K.h_from_f(K.level_counts(sets), rank)
    return {
        "elements": len(sets),
        "chain": K.chain_counts(sets),
        "h": h,
        "betas": K.simplicial_betas(h, rank),
        "h_nonneg": all(c >= 0 for c in h),
    }


def structures_jobs(rng):
    jobs = []
    for fam, k in ORACLE_TYPES:
        jobs.append(("oracle", (fam, k), {
            "order": derive(K.group_order, fam, k), "catalan": derive(K.catalan, fam, k),
            "h": list(derive(K.nc_h, fam, k)), "chain": derive(K.nc_chain, fam, k)}))
    specs = [("boolean", (n,)) for n in (5, 6, 7) * 4]
    specs += [("colored", nr) for nr in ((2, 5), (3, 3), (3, 4), (4, 2), (4, 3)) * 4]
    specs += [("face", (random_facets(rng, 2 + i % 2, 6 + i % 3, 6 + i % 4),))
              for i in range(60)]
    for family, params in specs:
        sets, rank = poset_sets(family, params)
        expect = derive(simplicial_expect, sets, rank)
        if family == "boolean":
            expect["boolean_betas"] = derive(K.descent_classes, rank)
        ts = [_sample_set(rng, range(1, rank + 1), (rank + 1) // 2) for _ in range(3)]
        ss = [_sample_set(rng, range(1, rank + 1), rank // 2) for _ in range(4)]
        jobs.append(("poset", (family, params, ts, ss), expect))
    rng.shuffle(jobs)
    return jobs


# ---- batch --------------------------------------------------------------


def _label(s):
    return "{%s}" % ",".join(
        "%d:%d" % x if isinstance(x, tuple) else str(x) for x in sorted(s))


def poset_file(sets):
    """The JSON poset format for a family of sets ordered by inclusion."""
    covers = [[_label(x), _label(y)] for x in sets for y in sets
              if len(y) == len(x) + 1 and x < y]
    return {"elements": [_label(x) for x in sets], "covers": covers}


def _set_text(s):
    return ",".join(str(x) for x in sorted(s)) if s else "-"


def batch_lines(rng, workdir):
    """Fresh lines, then a fixed share of repeats of earlier lines.

    Returns (lines, files): lines are (argv, kind, expect) and files maps
    a path to the JSON object written there.
    """
    fresh = []
    seen = set()
    for i in range(30):
        n = 18 + i % 7
        k = round(0.6 * (n - 1))
        _, t = _fresh(rng, seen, lambda: (n, _sample_set(rng, range(1, n), k)))
        fresh.append((["ant", str(n), _set_text(t)], "ant",
                      {"exit": 0, "size": derive(K.descent_class_size, n, t)}))
    for i in range(10):
        n = 12 + i % 5
        k = 7 + i % 3
        _, t = _fresh(rng, seen, lambda: (n, _sample_set(rng, range(1, n), k)))
        fresh.append((["ant", str(n), _set_text(t), "--gessel"], "ant",
                      {"exit": 0, "size": derive(K.descent_class_size, n, t), "gessel": "match"}))
    for i in range(10):
        n, r = ((6, 2), (7, 2), (6, 3), (7, 3), (8, 2))[i % 5]
        _, _, t = _fresh(rng, seen, lambda: (n, r, _sample_set(rng, range(1, n + 1), n // 2 + 1)))
        fresh.append((["ant", str(n), _set_text(t), "--colored", str(r)], "ant",
                      {"exit": 0, "size": derive(K.colored_class_size, n, r, t)}))
    nc_types = [("A", k) for k in range(6, 16)] + [("B", k) for k in range(6, 16)] \
        + [("D", k) for k in range(7, 16)] + [(name, None) for name in K.EXCEPTIONAL_DEGREES] \
        + [("I2", m) for m in range(3, 9)]
    for fam, k in nc_types:
        name = fam if k is None else ("I2:%d" % k if fam == "I2" else "%s%d" % (fam, k))
        expect = {"exit": 0, "hsum": derive(K.maximal_chains, fam, k),
                  "catalan": derive(K.catalan, fam, k)}
        if fam in ("A", "B", "D"):
            expect["h"] = list(derive(K.nc_h, fam, k))
        fresh.append((["nc", name, "--symdec"], "nc", expect))
    for fam, k in (("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("D", 3), ("D", 4)):
        fresh.append((["nc", "%s%d" % (fam, k), "--oracle"], "nc", {
            "exit": 0, "hsum": derive(K.maximal_chains, fam, k),
            "catalan": derive(K.catalan, fam, k),
            "h": list(derive(K.nc_h, fam, k)), "oracle": "match"}))
    for i in range(40):
        degree = 10 + i % 5
        quadratic = i % 10 == 9  # four lines that must end with exit 1
        _, (coeffs,), e = _root_job(rng, degree, i % 3 == 1, quadratic, negative=True)
        fresh.append((["certify", ",".join(map(str, coeffs))], "certify",
                      {"exit": 1 if quadratic else 0, "real-rooted": e["holds"]}))
    for i in range(24):
        s = 3 + i % 2
        variant = "broken" if i % 6 == 5 else ("shared" if i % 3 == 1 else "plain")
        _, (p, q), e = _pair_job(rng, s, (i // 2) % 2, variant, negative=True)
        fresh.append((["certify", ",".join(map(str, p)), "--interlaces", ",".join(map(str, q))],
                      "certify", {"exit": 0 if e["interlaces"] else 1,
                                  "real-rooted": True, "interlaces": e["interlaces"]}))
    for i in range(20):
        fam, k = (("A", 8 + i % 7), ("B", 8 + i % 7), ("D", 8 + i % 7))[i % 3]
        h = K.nc_h(fam, k)  # the input of the line, not an expected value
        fresh.append((["certify", ",".join(map(str, h)), "--symdec", str(k - 1)], "certify",
                      {"exit": 0, "real-rooted": True, "symdec": True, "symdec_n": k - 1}))
    files = {}
    poset_specs = [("boolean", (n,)) for n in (4, 5, 6)] \
        + [("colored", nr) for nr in ((3, 3), (3, 4), (4, 2))]
    while len(poset_specs) < 10:
        # --certify expects a real-rooted chain polynomial, which holds
        # for complexes with a nonnegative h-vector
        facets = random_facets(rng, 2 + len(poset_specs) % 2, 6, 7)
        sets = face_sets(facets)
        if all(c >= 0 for c in K.h_from_f(K.level_counts(sets), len(facets[0]))):
            poset_specs.append(("face", (facets,)))
    for j, (family, params) in enumerate(poset_specs):
        sets, rank = poset_sets(family, params)
        path = os.path.join(workdir, "poset%d.json" % j)
        files[path] = poset_file(sets)
        expect = derive(simplicial_expect, sets, rank)
        betas = derive(K.descent_classes, rank) if family == "boolean" else expect["betas"]
        top = (1 << (rank - 1)) - 1  # flags and rank selection use ranks 1..rank-1
        betas = {m: betas.get(m, 0) for m in range(top + 1)}
        base = {"exit": 0, "elements": len(sets), "chain": expect["chain"], "rank": rank}
        t = _sample_set(rng, range(1, rank), rank // 2)
        sel = {"rank-selected-h": derive(K.selected_h, betas, K.mask_of(t))}
        flags = {"betas": betas, "alphas": derive(K.alphas_from_betas, betas)}
        fresh.append((["poset", path, "--flags", "--certify"], "poset",
                      dict(base, **flags, certify=True)))
        fresh.append((["poset", path, "--rank-select", _set_text(t), "--certify"], "poset",
                      dict(base, **sel, certify=True)))
        fresh.append((["poset", path, "--rank-select", _set_text(t), "--flags"], "poset",
                      dict(base, **sel, **flags)))
    for i in range(10):
        n, r = 8 + i % 8, 3 + i % 5
        fresh.append((["words", "e", str(n), str(r)], "words", {"exit": 0, "size": r ** n}))
        fresh.append((["words", "etilde", str(n), str(r)], "words", {"exit": 0, "size": r ** n}))
    for n in range(8, 16):
        fresh.append((["words", "d", str(n)], "words", {"exit": 0, "size": 2 * (n - 1) ** n}))
    for argv, code in ((["ant", "5", "0"], 2), (["nc", "Q4"], 2), (["certify", "1,x"], 2),
                       (["nc", "A9", "--oracle"], 3), (["ant", "11", "-", "--brute"], 3)):
        fresh.append((argv, "error", {"exit": code}))
    rng.shuffle(fresh)
    lines = list(fresh)
    for _ in range(len(fresh) // 4):  # a fifth of all lines repeat one before them
        pos = rng.randint(1, len(lines))
        lines.insert(pos, lines[rng.randrange(pos)])
    return lines, files


def write_batch(lines, files, workdir):
    os.makedirs(workdir, exist_ok=True)
    for path, obj in files.items():
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
    path = os.path.join(workdir, "lines.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for argv, _, _ in lines:
            fh.write(json.dumps(argv) + "\n")
    return path
