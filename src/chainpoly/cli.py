"""Command-line front end.

Subcommands compute descent enumerators (ant), noncrossing-lattice
polynomials (nc), poset invariants from JSON files (poset), polynomial
certifications (certify) and word enumerators (words).  Reports are
printed as a bare coefficient line followed by key=value lines, or as a
single JSON object with --json.  Batch mode reads one JSON argv array
per line and emits one JSON report per line, in order.

Exit codes: 0 success / property holds, 1 a certified property fails,
2 invalid input or domain error, 3 resource cap exceeded.  Output is
deterministic; timing appears only behind --timing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
from fractions import Fraction

from .coxeter import (
    DEFAULT_GROUP_ORDER_CAP,
    CoxeterType,
    build_reflection_group,
    nc_chain_polynomial,
    nc_h_formula,
    nc_reversed_h_identity,
    noncrossing_lattice,
)
from .descents import (
    colored_descent_enumerator,
    colored_descent_enumerator_bruteforce,
    descent_enumerator,
    determinant_descent_enumerator,
    expected_descents,
    signed_word_descent_enumerator,
    word_ascent_enumerator,
    word_descent_enumerator,
)
from .errors import DomainError, GradedStructureError, ResourceLimitError
from .polynomials import (
    Poly,
    format_poly,
    is_log_concave,
    is_unimodal,
    mode,
    parse_poly,
    unimodal_peaks,
)
from .posets import (
    GradedBoundedPoset,
    chain_polynomial,
    flag_vectors,
    load_poset,
    rank_selected_h,
)
from .realroots import interlaces, is_real_rooted
from .symdecomp import symmetric_decomposition

DEFAULT_MAX_ENUM = 10 ** 7


def parse_descent_set(text: str) -> frozenset:
    """Positions as `2,4,6`; `-` is the empty set."""
    s = text.strip()
    if s == "-":
        return frozenset()
    out = set()
    for part in s.split(","):
        part = part.strip()
        try:
            pos = int(part) if part.isdecimal() else 0
        except ValueError:  # past Python's int() digit limit
            raise DomainError("descent position is too long") from None
        if pos < 1:
            raise DomainError("bad position %r in descent set" % part)
        out.add(pos)
    return frozenset(out)


def _format_set(s) -> str:
    if not s:
        return "-"
    return ",".join(str(x) for x in sorted(s))


def _text_value(v) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    if v is None:
        return "-"
    if isinstance(v, Poly):
        return format_poly(v)
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (tuple, list)):
        if not v:
            return "-"
        return ",".join(_text_value(x) for x in v)
    return str(v)


def _json_value(v):
    if isinstance(v, bool) or v is None or isinstance(v, (int, str, float)):
        return v
    if isinstance(v, Poly):
        return [_json_value(c) for c in v.coeffs]
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (tuple, list)):
        return [_json_value(x) for x in v]
    return str(v)


class Report:
    """Ordered key/value report; the `coefficients` entry is printed as
    a bare line in text mode."""

    def __init__(self):
        self.entries = []

    def add(self, key, value):
        self.entries.append((key, value))

    def text_lines(self):
        lines = []
        for key, value in self.entries:
            if key == "coefficients":
                lines.append(_text_value(value))
            else:
                lines.append("%s=%s" % (key, _text_value(value)))
        return lines

    def json_object(self):
        return {key: _json_value(value) for key, value in self.entries}


def _certification_lines(rep: Report, p: Poly) -> bool:
    ok = is_real_rooted(p)
    rep.add("real-rooted", ok)
    rep.add("unimodal", is_unimodal(p))
    rep.add("log-concave", is_log_concave(p))
    nonneg = all(c >= 0 for c in p.coeffs) and not p.is_zero
    rep.add("mode", mode(p) if nonneg else None)
    return ok


def _symdec_lines(rep: Report, p: Poly, n: int) -> bool:
    """Add the symmetric decomposition of p with respect to n and its
    verdict; returns the verdict."""
    dec = symmetric_decomposition(p, n)
    verdict = dec.nonneg_realrooted()
    rep.add("symmetric-part", dec.symmetric)
    rep.add("shifted-part", dec.shifted)
    rep.add("symdec", verdict)
    return verdict


def cmd_ant(ns, rep: Report) -> int:
    t = parse_descent_set(ns.t)
    if ns.colored is not None and ns.colored < 1:
        raise DomainError("color count must be >= 1")
    if ns.brute:
        p = colored_descent_enumerator_bruteforce(
            ns.n, ns.colored or 1, t, max_enum=ns.max_enum
        )
    elif ns.colored is not None:
        p = colored_descent_enumerator(ns.n, ns.colored, t)
    else:
        p = descent_enumerator(ns.n, t)
    rep.add("coefficients", p)
    rep.add("n", ns.n)
    rep.add("t", _format_set(t))
    if ns.colored is not None:
        rep.add("colors", ns.colored)
    _certification_lines(rep, p)
    if ns.colored is None:
        rep.add("mu", expected_descents(ns.n, t) if ns.n >= 1 else Fraction(0))
    code = 0
    if ns.gessel:
        if ns.colored is not None:
            raise DomainError("--gessel applies to the uncolored enumerator")
        match = determinant_descent_enumerator(ns.n, t) == p
        rep.add("gessel", "match" if match else "mismatch")
        if not match:
            code = 1
    return code


def cmd_nc(ns, rep: Report) -> int:
    t = CoxeterType.parse(ns.type)
    if ns.oracle:
        # the group-order cap comes before any formula work
        if t.family not in ("A", "B", "D"):
            raise ResourceLimitError(
                "no concrete group model for type %s" % t
            )
        group = build_reflection_group(t, max_order=ns.max_elements)
    h, chain = nc_h_formula(t), nc_chain_polynomial(t)
    peaks, expected = unimodal_peaks(h), t.rank // 2
    # the lines go to rep only once every value is computed, so that a
    # failure leaves only the error line
    lines = Report()
    lines.add("coefficients", h)
    lines.add("type", str(t))
    lines.add("rank", t.rank)
    lines.add("chain", chain)
    lines.add("real-rooted", is_real_rooted(h))
    lines.add("chain-real-rooted", is_real_rooted(chain))
    lines.add("unimodal", bool(peaks))  # h has constant term 1
    lines.add("peaks", peaks)
    lines.add("expected-peak", expected)
    lines.add("peak-ok", expected in peaks)
    lines.add("veronese-identity", nc_reversed_h_identity(t))
    if ns.symdec:
        _symdec_lines(lines, h, t.rank - 1)
    rep.entries += lines.entries
    code = 0
    if ns.oracle:
        match = chain_polynomial(noncrossing_lattice(group)) == chain
        rep.add("oracle", "match" if match else "mismatch")
        if not match:
            code = 1
    return code


def cmd_poset(ns, rep: Report) -> int:
    poset = load_poset(ns.file)
    f = chain_polynomial(poset)
    rep.add("coefficients", f)
    rep.add("file", ns.file)
    rep.add("elements", len(poset.elements))
    graded = isinstance(poset, GradedBoundedPoset)
    rep.add("graded", graded)
    if graded:
        rep.add("rank", poset.rank)
    if ns.rank_select is not None:
        if not graded:
            raise GradedStructureError(
                "rank selection needs a graded bounded poset"
            )
        sel = parse_descent_set(ns.rank_select)
        rep.add("rank-selected-h", rank_selected_h(poset, sel))
    if ns.flags:
        if not graded:
            raise GradedStructureError(
                "flag vectors need a graded bounded poset"
            )
        fv = flag_vectors(poset)
        for s in fv.subsets():
            rep.add("alpha:%s" % _format_set(s), fv.alpha(s))
        for s in fv.subsets():
            rep.add("beta:%s" % _format_set(s), fv.beta(s))
    if ns.certify:
        ok = _certification_lines(rep, f)
        return 0 if ok else 1
    return 0


def cmd_certify(ns, rep: Report) -> int:
    p = parse_poly(ns.poly)
    rep.add("coefficients", p)
    holds = _certification_lines(rep, p)
    if ns.interlaces is not None:
        q = parse_poly(ns.interlaces)
        rep.add("other", q)
        if is_real_rooted(p) and is_real_rooted(q):
            verdict = interlaces(p, q)
        else:
            verdict = False
        rep.add("interlaces", verdict)
        holds = holds and verdict
    if ns.symdec is not None:
        verdict = _symdec_lines(rep, p, ns.symdec)
        holds = holds and verdict
    return 0 if holds else 1


def cmd_words(ns, rep: Report) -> int:
    if ns.kind == "e":
        if ns.r is None:
            raise DomainError("words e needs n and r")
        p = word_descent_enumerator(ns.n, ns.r)
    elif ns.kind == "etilde":
        if ns.r is None:
            raise DomainError("words etilde needs n and r")
        p = word_ascent_enumerator(ns.n, ns.r)
    else:
        if ns.r is not None:
            raise DomainError("words d takes only n")
        p = signed_word_descent_enumerator(ns.n)
    rep.add("coefficients", p)
    rep.add("kind", ns.kind)
    rep.add("n", ns.n)
    if ns.r is not None:
        rep.add("r", ns.r)
    rep.add("real-rooted", is_real_rooted(p))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainpoly",
        description="Exact descent enumerators, chain polynomials and "
        "real-rootedness certificates.",
    )
    parser.add_argument(
        "--batch",
        metavar="FILE",
        help="run one JSON argv array per line of FILE, print one JSON "
        "report per line; exit with the maximum of the individual codes",
    )
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--json", action="store_true", help="emit one JSON object")
        p.add_argument(
            "--timing", action="store_true", help="append a time-ms line"
        )

    p = sub.add_parser("ant", help="restricted descent enumerator")
    p.add_argument("n", type=int)
    p.add_argument("t", help="allowed descent positions, e.g. 2,4 or - for none")
    p.add_argument("--colored", type=int, metavar="R", help="R-colored version")
    p.add_argument(
        "--gessel",
        action="store_true",
        help="cross-check against the determinant formula",
    )
    p.add_argument(
        "--brute", action="store_true", help="force the brute-force path"
    )
    p.add_argument(
        "--max-enum",
        type=int,
        default=DEFAULT_MAX_ENUM,
        help="cap on n! * r^n for --brute, r = 1 without --colored "
        "(default %(default)s)",
    )
    common(p)

    p = sub.add_parser("nc", help="noncrossing lattice polynomials")
    p.add_argument("type", help="Coxeter type, e.g. A4, B3, D5, I2:7, H3")
    p.add_argument(
        "--oracle",
        action="store_true",
        help="build the group and compare with the formulas",
    )
    p.add_argument(
        "--symdec", action="store_true", help="print the symmetric decomposition"
    )
    p.add_argument(
        "--max-elements",
        type=int,
        default=DEFAULT_GROUP_ORDER_CAP,
        help="group order cap for --oracle (default %(default)s)",
    )
    common(p)

    p = sub.add_parser("poset", help="chain polynomial of a poset file")
    p.add_argument("file")
    p.add_argument(
        "--rank-select",
        metavar="T",
        help="h-polynomial of the rank selection, e.g. 1,2",
    )
    p.add_argument(
        "--flags", action="store_true", help="print the flag alpha/beta table"
    )
    p.add_argument(
        "--certify",
        action="store_true",
        help="certify the chain polynomial; exit 1 if not real-rooted",
    )
    common(p)

    p = sub.add_parser("certify", help="certify properties of a polynomial")
    p.add_argument("poly", help="comma-separated coefficients, constant first")
    p.add_argument(
        "--interlaces",
        metavar="POLY",
        help="also check that POLY is interlaced by the first polynomial",
    )
    p.add_argument(
        "--symdec",
        type=int,
        metavar="N",
        help="also check the symmetric decomposition with respect to N",
    )
    common(p)

    p = sub.add_parser("words", help="word descent/ascent enumerators")
    p.add_argument("kind", choices=["e", "etilde", "d"])
    p.add_argument("n", type=int)
    p.add_argument("r", type=int, nargs="?")
    common(p)

    return parser


COMMANDS = {
    "ant": cmd_ant,
    "nc": cmd_nc,
    "poset": cmd_poset,
    "certify": cmd_certify,
    "words": cmd_words,
}


def run_command(ns) -> tuple:
    """Execute a parsed subcommand; returns (report, exit code)."""
    rep = Report()
    start = time.perf_counter()
    try:
        code = COMMANDS[ns.command](ns, rep)
    except (ResourceLimitError, OverflowError, MemoryError) as exc:
        # an OverflowError or MemoryError is a size past what Python can
        # index or allocate; a failed allocation carries no message
        rep.add("error", str(exc) or "out of memory")
        code = 3
    except DomainError as exc:
        rep.add("error", str(exc))
        code = 2
    if getattr(ns, "timing", False):
        rep.add("time-ms", round((time.perf_counter() - start) * 1000.0, 3))
    return rep, code


def _render(rep: Report, code: int, as_json: bool, batch: bool = False):
    """Printed text of a report, and its exit code.  A result holding an
    integer past Python's digit limit for str() is over budget: exit 3."""
    try:
        if not as_json:
            return "\n".join(rep.text_lines()), code
        obj = rep.json_object()
        return json.dumps(dict(obj, exit=code) if batch else obj), code
    except ValueError:
        err, limit = Report(), sys.get_int_max_str_digits()
        err.add("error", "unprintable result: an integer of over %d digits" % limit)
        return _render(err, 3, as_json, batch)


def _run_batch(path: str) -> int:
    parser = build_parser()
    worst = 0
    try:
        # bytes, so that an undecodable line fails on its own
        with open(path, "rb") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        print(json.dumps({"error": str(exc)}))
        return 2
    for raw in lines:
        try:
            raw = raw.decode("utf-8").strip()
            if not raw:
                continue
            tokens = json.loads(raw)
            if not isinstance(tokens, list) or not all(
                isinstance(tok, str) for tok in tokens
            ):
                raise ValueError("batch lines must be JSON arrays of strings")
            if tokens and tokens[0] == "--batch":
                raise ValueError("batch lines cannot nest --batch")
            with contextlib.redirect_stderr(io.StringIO()):
                ns = parser.parse_args(tokens)
            if ns.command is None:
                raise ValueError("batch line is missing a subcommand")
        except (ValueError, RecursionError, SystemExit) as exc:
            msg = "bad arguments" if isinstance(exc, SystemExit) else str(exc)
            print(json.dumps({"error": msg, "exit": 2}))
            worst = max(worst, 2)
            continue
        rep, code = run_command(ns)
        text, code = _render(rep, code, True, batch=True)
        print(text)
        worst = max(worst, code)
    return worst


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.batch is not None:
        if ns.command is not None:
            parser.error("--batch replaces the subcommand")
        return _run_batch(ns.batch)
    if ns.command is None:
        parser.print_usage(sys.stderr)
        return 2
    rep, code = run_command(ns)
    text, code = _render(rep, code, getattr(ns, "json", False))
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
