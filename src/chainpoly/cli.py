"""Command-line front end.

Subcommands compute descent enumerators (ant), noncrossing-lattice
polynomials (nc), poset invariants from JSON files (poset), polynomial
certifications (certify) and word enumerators (words).  Reports are
printed as a bare coefficient line followed by key=value lines, or as a
single JSON object with --json.  Batch mode reads one JSON argv array
per line and emits one JSON report per line, in order.  Within one
batch call an exact repeat of an earlier line prints that line's record
again without rerunning it, when the record exited 0 or 1 and the line
has no --timing; a poset line is a repeat only while its file holds the
same bytes, and one whose file cannot be read always runs.  At most
1024 records, and 1024 file contents (one copy each, shared by the
lines that read it), are kept, the oldest dropped first.

Exit codes: 0 success / property holds, 1 a certified property fails,
2 invalid input or domain error, 3 resource cap exceeded; a command
that fails prints only its error line.  Output is deterministic; timing
appears only behind --timing.
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
    DEFAULT_COLORED_CAP,
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
    _MEMO_SIZE,
    Poly,
    format_poly,
    has_nonneg_coeffs,
    is_log_concave,
    is_unimodal,
    mode,
    parse_poly,
    unimodal_peaks,
)
from .posets import (
    GradedBoundedPoset,
    PosetFileError,
    _parse_poset,
    _read_poset,
    chain_polynomial,
    flag_vectors,
    rank_selected_h,
)
from .realroots import interlaces, is_real_rooted
from .symdecomp import symmetric_decomposition


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
    nonneg = has_nonneg_coeffs(p) and not p.is_zero
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
    if ns.colored is not None and ns.gessel:
        raise DomainError("--gessel applies to the uncolored enumerator")
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
        match = determinant_descent_enumerator(ns.n, t) == p
        rep.add("gessel", "match" if match else "mismatch")
        if not match:
            code = 1
    return code


def cmd_nc(ns, rep: Report) -> int:
    t = CoxeterType.parse(ns.type)
    if ns.oracle:
        # the group-order cap comes before any formula work
        group = build_reflection_group(t, max_order=ns.max_elements)
    h, chain = nc_h_formula(t), nc_chain_polynomial(t)
    peaks, expected = unimodal_peaks(h), t.rank // 2
    rep.add("coefficients", h)
    rep.add("type", str(t))
    rep.add("rank", t.rank)
    rep.add("chain", chain)
    real_rooted = is_real_rooted(h)
    rep.add("real-rooted", real_rooted)
    # chain = (1+x)^2 f_from_h(h, rank-1), whose roots are -1 and the
    # images of h's roots under the real Moebius map y -> y/(1-y)
    rep.add("chain-real-rooted", real_rooted)
    rep.add("unimodal", bool(peaks))  # h has constant term 1
    rep.add("peaks", peaks)
    rep.add("expected-peak", expected)
    rep.add("peak-ok", expected in peaks)
    rep.add("veronese-identity", nc_reversed_h_identity(t))
    if ns.symdec:
        _symdec_lines(rep, h, t.rank - 1)
    code = 0
    if ns.oracle:
        match = chain_polynomial(noncrossing_lattice(group)) == chain
        rep.add("oracle", "match" if match else "mismatch")
        if not match:
            code = 1
    return code


def cmd_poset(ns, rep: Report) -> int:
    # a batch line carries what the one read for its reuse key gave: the
    # file's bytes, or the error the read raised
    raw = getattr(ns, "raw", None)
    if isinstance(raw, Exception):
        raise raw
    poset = _parse_poset(_read_poset(ns.file) if raw is None else raw)
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
        subsets = fv.subsets()
        for s in subsets:
            rep.add("alpha:%s" % _format_set(s), fv.alpha(s))
        for s in subsets:
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


def build_parser() -> tuple:
    """The top parser, and each subcommand's own parser by name."""
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
        default=DEFAULT_COLORED_CAP,
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

    return parser, sub.choices


COMMANDS = {
    "ant": cmd_ant,
    "nc": cmd_nc,
    "poset": cmd_poset,
    "certify": cmd_certify,
    "words": cmd_words,
}


def run_command(ns) -> tuple:
    """Execute a parsed subcommand; returns (report, exit code).  A failed
    command reports only its error, whatever it added before failing."""
    rep = Report()
    start = time.perf_counter()
    try:
        code = COMMANDS[ns.command](ns, rep)
    except (ResourceLimitError, OverflowError, MemoryError) as exc:
        # an OverflowError or MemoryError is a size past what Python can
        # index or allocate; a failed allocation carries no message
        rep.entries = [("error", str(exc) or "out of memory")]
        code = 3
    except DomainError as exc:
        rep.entries = [("error", str(exc))]
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


def _parse_line(parser: argparse.ArgumentParser, commands: dict, tokens: list):
    """parser.parse_args(tokens): the same Namespace, or the same exit with
    the same output.  A line that starts with a subcommand goes straight to
    that subcommand's parser, which skips the top parser's pass over it;
    should that parser stop on the line (an error, or -h), its output is
    dropped and the top parser reads the line as it always has."""
    if tokens and tokens[0] in commands:
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                ns = commands[tokens[0]].parse_args(tokens[1:])
        except SystemExit:
            pass
        else:
            ns.command, ns.batch = tokens[0], None
            return ns
    return parser.parse_args(tokens)


def _reuse_key(tokens: list, ns, files: dict):
    """The key under which a batch line's record may be reused, or None
    when the line must always run: a --timing line, and a poset line whose
    file cannot be read.  A poset line reads its file here, once: the key
    holds the bytes, and ns.raw hands them, or the error the read raised,
    on to cmd_poset.  files keeps one copy of each content, shared by
    every line that reads it, for at most _MEMO_SIZE contents."""
    if ns.timing:
        return None
    if ns.command != "poset":
        return tuple(tokens)
    try:
        raw = _read_poset(ns.file)
    except (PosetFileError, MemoryError) as exc:
        # an endless device fills memory; the line reports it as exit 3
        ns.raw = exc
        return None
    ns.raw = raw = files.setdefault(raw, raw)
    if len(files) > _MEMO_SIZE:
        del files[next(iter(files))]
    return tuple(tokens), raw


def _run_batch(parser: argparse.ArgumentParser, commands: dict, path: str) -> int:
    records = {}  # reuse key -> (printed record, exit code), oldest first
    files = {}  # poset file bytes -> the same bytes, oldest first
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
            # -h prints its help to stdout, usage errors to stderr: neither
            # may reach the JSONL stream
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                ns = _parse_line(parser, commands, tokens)
            if ns.command is None:
                raise ValueError("batch line is missing a subcommand")
        except (ValueError, RecursionError, SystemExit) as exc:
            msg = "bad arguments" if isinstance(exc, SystemExit) else str(exc)
            print(json.dumps({"error": msg, "exit": 2}))
            worst = max(worst, 2)
            continue
        key = _reuse_key(tokens, ns, files)
        if key in records:
            text, code = records[key]
        else:
            rep, code = run_command(ns)
            text, code = _render(rep, code, True, batch=True)
            if key is not None and code <= 1:
                records[key] = text, code
                if len(records) > _MEMO_SIZE:
                    del records[next(iter(records))]
        print(text)
        worst = max(worst, code)
    return worst


def main(argv=None) -> int:
    parser, commands = build_parser()
    ns = _parse_line(parser, commands, sys.argv[1:] if argv is None else argv)
    if ns.batch is not None:
        if ns.command is not None:
            parser.error("--batch replaces the subcommand")
        return _run_batch(parser, commands, ns.batch)
    if ns.command is None:
        parser.print_usage(sys.stderr)
        return 2
    rep, code = run_command(ns)
    text, code = _render(rep, code, getattr(ns, "json", False))
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
