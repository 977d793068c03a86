"""Run one job against the package and check its result.

``run(lib, job)`` is the timed part: the calls into the package, made
through module attributes so that the traced mode sees them.
``check(job, result)`` is untimed and returns a list of problems, empty
when every output matches its expected value.  The batch workload has
its own pair: ``run_batch`` and ``check_report``.
"""

from __future__ import annotations

import io
import sys
import time

import checks as K


def _coeffs(p):
    return list(p.coeffs)


def run_ant(lib, n, t):
    p = lib.descents.descent_enumerator(n, t)
    return p, lib.realroots.real_rootedness(p)


def run_colored(lib, n, r, t):
    base = lib.descents.descent_enumerator(n, t)
    col = lib.descents.colored_descent_enumerator(n, r, t)
    return base, col, lib.realroots.is_real_rooted(col), lib.realroots.interlaces(base, col)


def run_roots(lib, coeffs):
    return lib.realroots.real_rootedness(lib.polynomials.Poly(coeffs))


def run_pair(lib, p, q):
    Poly = lib.polynomials.Poly
    return lib.realroots.interlaces(Poly(p), Poly(q))


def run_symdec(lib, fam, k):
    h = lib.coxeter.nc_h_formula(lib.coxeter.CoxeterType(fam, k))
    dec = lib.symdecomp.symmetric_decomposition(h, k - 1)
    return h, dec, lib.symdecomp.has_nonneg_realrooted_symdec(h, k - 1)


def run_oracle(lib, fam, k):
    g = lib.coxeter.build_reflection_group(lib.coxeter.CoxeterType(fam, k))
    lattice = lib.coxeter.noncrossing_lattice(g)
    h = lib.posets.order_h_polynomial(lattice.proper_part())
    chain = lib.posets.chain_polynomial(lattice)
    return len(g.elements), len(lattice), h, chain, lib.realroots.is_real_rooted(h)


def run_poset(lib, family, params, ts, ss):
    S, P = lib.simplicial, lib.posets
    if family == "boolean":
        poset = S.boolean_lattice(*params)
    elif family == "colored":
        poset = S.colored_subset_poset(*params)
    else:
        poset = S.face_poset(*params)
    hat = P.adjoin_max(poset)
    out = {
        "elements": len(poset),
        "chain": P.chain_polynomial(poset),
        "flags": P.flag_vectors(hat),
        "simplicial": S.is_simplicial(poset),
        "stanley": [S.stanley_flag_beta(poset, s) for s in ss],
        "selected": [],
    }
    for t in ts:
        h = P.rank_selected_h(hat, t)
        f = P.chain_polynomial(P.rank_selected(hat, t).proper_part())
        out["selected"].append((h, f, lib.realroots.is_real_rooted(h)))
    if family == "boolean":
        out["boolean_flags"] = P.flag_vectors(poset)
    return out


RUN = {
    "ant": run_ant,
    "colored": run_colored,
    "roots": run_roots,
    "pair": run_pair,
    "symdec": run_symdec,
    "oracle": run_oracle,
    "poset": run_poset,
}


def run(lib, job):
    kind, args, _ = job
    return RUN[kind](lib, *args)


def _expect(problems, what, got, want):
    if got != want:
        problems.append("%s: got %r, want %r" % (what, got, want))


def check_ant(args, e, result):
    p, rr = result
    out = []
    cs = _coeffs(p)
    _expect(out, "p(1)", sum(cs), e["size"])
    _expect(out, "degree", len(cs) - 1, e["degree"])
    _expect(out, "nonnegative", all(c >= 0 for c in cs), True)
    _expect(out, "real-rooted", rr.holds, True)
    _expect(out, "distinct roots", rr.distinct_real_roots, rr.squarefree_degree)
    return out


def check_colored(args, e, result):
    base, col, rr, inter = result
    out = []
    _expect(out, "base(1)", sum(_coeffs(base)), e["base_size"])
    _expect(out, "colored(1)", sum(_coeffs(col)), e["size"])
    _expect(out, "colored real-rooted", rr, True)
    _expect(out, "base interlaces colored", inter, True)
    return out


def check_roots(args, e, rr):
    out = []
    for key in ("holds", "degree", "squarefree_degree", "distinct_real_roots"):
        _expect(out, key, getattr(rr, key), e[key])
    return out


def check_pair(args, e, verdict):
    out = []
    _expect(out, "interlaces", verdict, e["interlaces"])
    return out


def check_symdec(args, e, result):
    fam, k = args
    h, dec, verdict = result
    a, b = _coeffs(dec.symmetric), _coeffs(dec.shifted)
    out = []
    _expect(out, "h", tuple(_coeffs(h)), e["h"])
    _expect(out, "h(1)", sum(_coeffs(h)), K.maximal_chains(fam, k))
    _expect(out, "a + x b", K.add(a, [0] + b), list(e["h"]))
    _expect(out, "a symmetric", K.is_symmetric(a, k - 1), True)
    _expect(out, "b symmetric", K.is_symmetric(b, k - 2), True)
    _expect(out, "parts nonnegative", all(c >= 0 for c in a + b), True)
    _expect(out, "symdec verdict", verdict, True)
    return out


def check_oracle(args, e, result):
    order, size, h, chain, rr = result
    out = []
    _expect(out, "group order", order, e["order"])
    _expect(out, "lattice size", size, e["catalan"])
    _expect(out, "h", _coeffs(h), e["h"])
    _expect(out, "chain", _coeffs(chain), e["chain"])
    _expect(out, "real-rooted", rr, True)
    return out


def check_poset(args, e, result):
    family, params, ts, ss = args
    betas = e["betas"]
    alphas = K.alphas_from_betas(betas)
    fv = result["flags"]
    out = []
    _expect(out, "elements", result["elements"], e["elements"])
    _expect(out, "chain", _coeffs(result["chain"]), e["chain"])
    _expect(out, "simplicial", result["simplicial"], True)
    for mask in betas:
        s = frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)
        _expect(out, "beta%s" % sorted(s), fv.beta(s), betas[mask])
        _expect(out, "alpha%s" % sorted(s), fv.alpha(s), alphas[mask])
    for s, got in zip(ss, result["stanley"]):
        _expect(out, "stanley beta%s" % sorted(s), got, betas[K.mask_of(s)])
    for t, (h, f, rr) in zip(ts, result["selected"]):
        want = K.selected_h(betas, K.mask_of(t))
        _expect(out, "rank-selected h%s" % sorted(t), _coeffs(h), want)
        # the rank-selection identity: h of the selection's order complex
        _expect(out, "identity%s" % sorted(t), K.h_from_f(_coeffs(f), len(t)), want)
        if e["h_nonneg"]:
            _expect(out, "rank-selected real-rooted", rr, True)
    if family == "boolean":
        n = params[0]
        counts = e["boolean_betas"]
        for mask in range(1 << (n - 1)):
            s = frozenset(i + 1 for i in range(n - 1) if mask >> i & 1)
            _expect(out, "boolean beta%s" % sorted(s),
                    result["boolean_flags"].beta(s), counts.get(mask, 0))
    return out


CHECK = {
    "ant": check_ant,
    "colored": check_colored,
    "roots": check_roots,
    "pair": check_pair,
    "symdec": check_symdec,
    "oracle": check_oracle,
    "poset": check_poset,
}


def check(job, result):
    kind, args, expect = job
    return CHECK[kind](args, expect, result)


# ---- batch --------------------------------------------------------------


class StampedStdout(io.TextIOBase):
    """Collects what the CLI prints and stamps each completed line."""

    def __init__(self):
        self.parts = []
        self.lines = []
        self.stamps = []

    def writable(self):
        return True

    def write(self, text):
        self.parts.append(text)
        if "\n" in text:
            now = time.perf_counter()
            joined = "".join(self.parts).split("\n")
            self.parts = [joined[-1]] if joined[-1] else []
            for line in joined[:-1]:
                self.lines.append(line)
                self.stamps.append(now)
        return len(text)


def run_batch(lib, path):
    """One in-process `chainpoly --batch` call.  Returns the exit code,
    the report lines, the clock reading as each report was written, and
    the clock readings at the start and the end of the call."""
    out = StampedStdout()
    saved = sys.stdout
    sys.stdout = out
    start = time.perf_counter()
    try:
        code = lib.cli.main(["--batch", path])
    finally:
        end = time.perf_counter()
        sys.stdout = saved
    return code, out.lines, out.stamps, start, end


def check_report(kind, e, rep):
    out = []
    _expect(out, "exit", rep.get("exit"), e["exit"])
    if kind == "error":
        _expect(out, "error message", "error" in rep, True)
        return out
    cs = rep.get("coefficients")
    if not isinstance(cs, list):
        return out + ["no coefficients"]
    if "size" in e:
        _expect(out, "p(1)", sum(cs), e["size"])
    if kind in ("ant", "words"):
        _expect(out, "real-rooted", rep.get("real-rooted"), True)
    if "gessel" in e:
        _expect(out, "gessel", rep.get("gessel"), e["gessel"])
    if kind == "nc":
        _expect(out, "h(1)", sum(cs), e["hsum"])
        if "h" in e:
            _expect(out, "h", cs, e["h"])
        chain = rep.get("chain") or []
        _expect(out, "chain x^1", chain[1] if len(chain) > 1 else None, e["catalan"])
        _expect(out, "real-rooted", rep.get("real-rooted"), True)
        _expect(out, "chain real-rooted", rep.get("chain-real-rooted"), True)
        if "oracle" in e:
            _expect(out, "oracle", rep.get("oracle"), e["oracle"])
        else:
            _expect(out, "symdec", rep.get("symdec"), True)
    if kind == "certify":
        for key in ("real-rooted", "interlaces", "symdec"):
            if key in e:
                _expect(out, key, rep.get(key), e[key])
        if "symdec_n" in e:
            a = rep.get("symmetric-part") or []
            b = rep.get("shifted-part") or []
            _expect(out, "a + x b", K.add(a, [0] + b), cs)
            _expect(out, "a symmetric", K.is_symmetric(a, e["symdec_n"]), True)
    if kind == "poset":
        _expect(out, "chain", cs, e["chain"])
        _expect(out, "elements", rep.get("elements"), e["elements"])
        _expect(out, "rank", rep.get("rank"), e["rank"])
        if "rank-selected-h" in e:
            _expect(out, "rank-selected-h", rep.get("rank-selected-h"), e["rank-selected-h"])
        if "betas" in e:
            for mask, want in e["betas"].items():
                key = _set_key(mask)
                _expect(out, "beta:" + key, rep.get("beta:" + key), want)
                _expect(out, "alpha:" + key, rep.get("alpha:" + key), e["alphas"][mask])
        if e.get("certify"):
            _expect(out, "real-rooted", rep.get("real-rooted"), True)
    return out


def _set_key(mask):
    members = [str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1]
    return ",".join(members) if members else "-"
