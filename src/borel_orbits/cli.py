"""Command-line front end.

Subcommands: roots, ideals, orbits, cascade, dual, normal-form,
structure-table, count-anr, conjecture-check, hasse, paper-suite.
Domain errors exit with status 1, usage errors with 2; all output is
deterministic for fixed arguments and seed.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Iterable, Iterator, Optional

from . import anr, normal_form, orbits
from .chevalley import build_structure_table
from .ideals import (
    _abelian_masks,
    _sorted_roots,
    abelian_nilradicals,
    check_abelian_ideal,
    ideal_from_shape,
    ideal_generated,
    maximal_abelian_ideals,
)
from .root_system import (
    _parse_roots,
    _split_roots,
    build_root_system,
    node_from_bourbaki,
    node_to_bourbaki,
)

_NUMBERING_ENV = "BOREL_ORBITS_NUMBERING"


def _numbering(args) -> str:
    conv = args.numbering or os.environ.get(_NUMBERING_ENV, "bourbaki")
    if conv not in ("bourbaki", "vinberg"):
        raise ValueError(f"unknown numbering convention {conv!r}")
    return conv


def _node_in(rs, args, node: int) -> int:
    # 0-based Bourbaki position of a nilradical node; checked here, not by
    # anr_ideal, so that the message names nodes in the chosen numbering
    node0 = node_to_bourbaki(rs, node, _numbering(args)) - 1
    nodes = anr.anr_nodes(rs)
    if node0 not in nodes:
        raise ValueError(
            f"alpha_{node} is not an abelian-nilradical node of {rs.type}; "
            f"valid nodes: {sorted(_node_out(rs, args, n) for n in nodes)}")
    return node0


def _node_out(rs, args, node0: int) -> int:
    return node_from_bourbaki(rs, node0 + 1, _numbering(args))


def _resolve_ideal(rs, args) -> frozenset:
    specs = [s for s in ("ideal", "shape", "max_abelian", "anr")
             if getattr(args, s, None) is not None]
    if len(specs) != 1:
        raise ValueError(
            "specify the ideal with exactly one of --ideal, --shape, "
            "--max-abelian or --anr")
    if args.max_abelian is not None:
        mx = maximal_abelian_ideals(rs)
        if not 0 <= args.max_abelian < len(mx):
            raise ValueError(
                f"{rs.type} has {len(mx)} maximal abelian ideals, "
                f"index {args.max_abelian} is out of range")
        return mx[args.max_abelian]
    if args.anr is not None:
        return anr.anr_ideal(rs, _node_in(rs, args, args.anr))
    if args.ideal is not None:
        ideal = ideal_generated(rs, _parse_roots(rs, args.ideal))
        what = "the generated ideal"
    else:
        rows = _shape_rows(args.shape)
        ideal = ideal_from_shape(rs, rows)
        what = f"the shape {rows} ideal"
    try:
        return check_abelian_ideal(rs, ideal)
    except ValueError:
        # both constructions are upward closed, so only abelianness can fail
        raise ValueError(f"{what} is not abelian") from None


def _shape_rows(text: str) -> list:
    return [int(x) for x in text.split(",") if x.strip()]


def _ideal_spec_options(p):
    p.add_argument("--ideal", help="comma-separated generator roots")
    p.add_argument("--shape", help="type-A Young diagram rows, e.g. 3,3,1")
    p.add_argument("--max-abelian", type=int, dest="max_abelian",
                   help="index into the maximal abelian ideals")
    p.add_argument("--anr", type=int, help="abelian-nilradical node (1-based)")


# Listings and JSON text reach stdout through _write, one write per batch
# of this many lines, or of JSON pieces, one per element of the top two
# levels: a write per line is slow, and the whole text at once doubles a
# large report's peak memory.
_BATCH = 1 << 12


def _write(pieces: Iterable[str]) -> None:
    """Write the strings to stdout, joined in batches of _BATCH."""
    pieces = iter(pieces)
    while batch := list(islice(pieces, _BATCH)):
        sys.stdout.write("".join(batch))


# json.JSONEncoder runs its C encoder only without indent, so an indented
# dump goes through a chain of Python generators, one piece per bracket,
# key and scalar (48,823 pieces for the C6 report).  _json_text builds each
# value bottom-up as one string, its strings through json's C encoder.
def _json_text(value, pad: str) -> str:
    """The text json.dumps(value, indent=2, sort_keys=True) gives, indented at pad.

    Keys must be str, and values str, int, bool, None, list, tuple or
    dict; anything else, a float included, is a TypeError.
    """
    if isinstance(value, str):
        return _encode_str(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        sep = ",\n" + inner
        if isinstance(value[0], str):
            try:
                return f"[\n{inner}{sep.join(map(_encode_str, value))}\n{pad}]"
            except TypeError:  # not only strings
                pass
        return f"[\n{inner}{sep.join([_json_text(v, inner) for v in value])}\n{pad}]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        body = (",\n" + inner).join([_encode_str(k) + ": " + _json_text(v, inner)
                                     for k, v in sorted(value.items())])
        return f"{{\n{inner}{body}\n{pad}}}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_pieces(value, pad: str = "", levels: int = 2) -> Iterator[str]:
    """_json_text(value, pad) in pieces, one per element of its top levels."""
    if not (levels and value and isinstance(value, (list, tuple, dict))):
        yield _json_text(value, pad)
        return
    inner = pad + "  "
    if isinstance(value, dict):
        brackets = "{}"
        items = [(_encode_str(k) + ": ", v) for k, v in sorted(value.items())]
    else:
        brackets = "[]"
        items = zip(repeat(""), value)
    sep = brackets[0] + "\n" + inner
    for key, v in items:
        if levels == 1:
            yield sep + key + _json_text(v, inner)
        else:
            yield sep + key
            yield from _json_pieces(v, inner, levels - 1)
        sep = ",\n" + inner
    yield "\n" + pad + brackets[1]


def _print_json(data) -> int:
    _write(_json_pieces(data))
    sys.stdout.write("\n")
    return 0


def _labels(rs, roots):
    return ",".join(rs.sorted_labels(roots))


def _parse_vector(rs, text: str) -> dict:
    out = {}
    for part in _split_roots(text):
        if ":" not in part:
            raise ValueError(f"vector entry {part!r} is not of the form root:value")
        token, _, value = part.rpartition(":")
        root = rs.parse_root(token)
        if root in out:
            raise ValueError(f"vector entry {part!r} repeats the root {rs.root_label(root)}")
        try:
            out[root] = Fraction(value.strip())
        except ZeroDivisionError:
            raise ValueError(f"vector entry {part!r} has a zero denominator") from None
    return out


# -- subcommand handlers ----------------------------------------------------

def _cmd_roots(args) -> int:
    rs = build_root_system(args.type)
    if args.json:
        data = {
            "type": str(rs.type),
            "rank": rs.rank,
            "cartan": [list(r) for r in rs.cartan],
            "theta": rs.root_json(rs.theta_index),
            "positive_roots": [rs.root_json(i) for i in range(rs.num_positive)],
        }
        return _print_json(data)
    print(f"{rs.type}: {rs.num_positive} positive roots, "
          f"theta = {rs.root_label(rs.theta_index)}")
    for i in range(rs.num_positive):
        kind = "long" if rs.long[i] else "short"
        print(f"{i:4d}  h={rs.heights[i]:2d}  {kind:5s}  {rs.root_label(i):12s} "
              f"{list(rs.positive_roots[i])}")
    return 0


def _cmd_ideals(args) -> int:
    rs = build_root_system(args.type)
    if args.shape is not None:
        items = [("shape " + args.shape, ideal_from_shape(rs, _shape_rows(args.shape)))]
    elif args.anr:
        items = [(f"alpha_{_node_out(rs, args, node)}", ideal)
                 for node, ideal in abelian_nilradicals(rs)]
    elif args.maximal:
        items = [(f"maximal {k}", a)
                 for k, a in enumerate(maximal_abelian_ideals(rs))]
    else:
        # root tuples, not AbelianIdeals: A18's 2^18 ideals then fit in about 160 MB
        items = [(f"abelian {k}", a)
                 for k, a in enumerate(_sorted_roots(_abelian_masks(rs)))]
    if args.json:
        return _print_json([{"name": name, "size": len(a), "roots": rs.sorted_labels(a)}
                            for name, a in items])
    for name, a in items:
        print(f"{name}: dim {len(a)}: {_labels(rs, a)}")
    return 0


def _cmd_orbits(args) -> int:
    if (args.dims or args.dual) and (args.count or args.json):
        args.usage_error("--dims and --dual shape only the text table; "
                         "they are not allowed with --count or --json")
    rs = build_root_system(args.type)
    ideal = _resolve_ideal(rs, args)
    if args.count:
        print(sum(orbits.label_counts(rs, ideal)))
        return 0
    labels = orbits._label_masks(rs, ideal)
    if args.json:
        return _print_json([orbits._record(rs, row).to_json(rs)
                            for row in orbits._table_rows(rs, ideal, labels)])
    head = ("orth_set,size,dim_in_a,dim_in_a_star,dual" if args.csv
            else f"{rs.type}, ideal of dim {len(ideal)}: {len(labels)} orbits")
    _write(chain([head + "\n"], _orbit_lines(rs, ideal, labels, args)))
    return 0


def _mask_text(labels, mask: int) -> str:
    """The comma-joined sorted labels of a mask's roots.

    The bit loop of root_system._bits is written out, as in
    orbits._table_rows: this runs for every label of a table, and calling
    _bits and RootSystem.sorted_labels made the C8 node 8 table about 18%
    slower (interleaved in-process timings).
    """
    out = []
    while mask:
        i = mask.bit_length() - 1
        out.append(labels[i])
        mask ^= 1 << i
    out.sort()
    return ",".join(out)


class _LabelNames(dict):
    """The label text of each root mask, built on its first lookup."""

    def __init__(self, rs):
        self.labels = rs.labels

    def __missing__(self, mask: int) -> str:
        text = self[mask] = _mask_text(self.labels, mask)
        return text


def _orbit_lines(rs, ideal, labels, args) -> Iterator[str]:
    """The rows of an orbit listing, one line each: plain, CSV or text table."""
    if not (args.csv or args.dims or args.dual):
        for ss in labels:
            yield f"  {{{_mask_text(rs.labels, ss)}}}\n"
        return
    # every dual is itself a label, so each string serves as some row's S and
    # as the dual of others; the memo does not assume one row per dual
    names = _LabelNames(rs)
    for ss, m_up, m_down, _, dual in orbits._table_rows(rs, ideal, labels):
        k = ss.bit_count()
        dim_a, dim_star = k + m_up.bit_count(), k + m_down.bit_count()
        if args.csv:
            yield f'"{names[ss]}",{k},{dim_a},{dim_star},"{names[dual]}"\n'
            continue
        line = f"  {{{names[ss]}}}"
        if args.dims:
            line += f"  dim {dim_a}, dual dim {dim_star}"
        if args.dual:
            line += f"  dual {{{names[dual]}}}"
        yield line + "\n"


def _cmd_cascade(args) -> int:
    rs = build_root_system(args.type)
    cascade = orbits.kostant_cascade(rs)
    if args.json:
        return _print_json({
            "type": str(rs.type),
            "cascade": rs.sorted_labels(cascade),
            "size": len(cascade),
            "borel_index": orbits.borel_index(rs),
        })
    print(f"{rs.type} cascade ({len(cascade)} roots, Borel index "
          f"{orbits.borel_index(rs)}): {_labels(rs, cascade)}")
    return 0


def _cmd_dual(args) -> int:
    rs = build_root_system(args.type)
    ideal = _resolve_ideal(rs, args)
    s = _parse_roots(rs, args.set)
    if not s <= ideal:
        raise ValueError("--set must lie inside the chosen ideal")
    if args.json:
        return _print_json(orbits.orbit_record(rs, ideal, s).to_json(rs))
    print(_labels(rs, orbits.pyasetskii_dual(rs, ideal, s)))
    return 0


def _cmd_normal_form(args) -> int:
    rs = build_root_system(args.type)
    ideal = _resolve_ideal(rs, args)
    vec = _parse_vector(rs, args.vector)
    if args.dual:
        s, transcript = normal_form.reduce_in_dual(rs, ideal, vec)
    else:
        s, transcript = normal_form.reduce_in_ideal(rs, ideal, vec)
    if args.json:
        data = {"orth_set": rs.sorted_labels(s),
                "normalized": transcript.normalized}
        if args.transcript:
            data["transcript"] = transcript.to_json(rs)
        return _print_json(data)
    print(f"S = {{{_labels(rs, s)}}}  (normalized: {transcript.normalized})")
    if args.transcript:
        for d, t in transcript.steps:
            print(f"  step: root {rs.root_label(d)}, t = {t}")
        print(f"  torus: {[str(x) for x in transcript.torus]}")
        print(f"  result: {{{', '.join(f'{rs.root_label(i)}: {c}' for i, c in sorted(transcript.result.items()))}}}")
    return 0


def _cmd_structure_table(args) -> int:
    rs = build_root_system(args.type)
    table = build_structure_table(rs)
    if args.json:
        return _print_json(table.to_json())
    for entry in table.to_json():
        print(f"N[{entry['a']}, {entry['b']}] = {entry['n']}")
    return 0


def _cmd_count_anr(args) -> int:
    rs = build_root_system(args.type)
    if args.node is not None:
        nodes = [_node_in(rs, args, args.node)]
    else:
        nodes = anr.anr_nodes(rs)
        if not nodes:
            raise ValueError(f"{rs.type} has no abelian nilradicals")
    tables = [anr.anr_statistic(rs, node) for node in nodes]
    if args.json:
        return _print_json([dict(t.to_json(), node=_node_out(rs, args, t.node))
                            for t in tables])
    if args.csv:
        print("type,node,k,count")
        for t in tables:
            for k, c in enumerate(t.counts):
                print(f"{t.type},{_node_out(rs, args, t.node)},{k},{c}")
        return 0
    for t in tables:
        row = " ".join(str(c) for c in t.counts)
        print(f"{t.type} alpha_{_node_out(rs, args, t.node)}: {row} | {t.total}")
    return 0


def _report_human(rs, args, rep) -> None:
    where = "maximal ideal" if rep.node is None else f"node alpha_{_node_out(rs, args, rep.node)}"
    print(f"{rep.type} {where}: {len(rep.rows)} orbits "
          f"[evidence only, not a proof]")
    print(f"  formula violations:      {len(rep.formula_violations)}")
    print(f"  parity violations:       {len(rep.parity_violations)}")
    print(f"  monotonicity violations: {len(rep.monotonicity_violations)}")
    print(f"  subset-order violations: {len(rep.subset_violations)}")
    print(f"  cover-gap violations:    {len(rep.cover_gap_violations)}")
    print(f"  rank-graded subposet:    {rep.rank_graded}")
    for s in rep.formula_violations:
        row = next(r for r in rep.rows if r.orth_set == s)
        print(f"  mismatch at {{{_labels(rs, s)}}}: dim {row.dim_actual} vs "
              f"(l + #S)/2 = {row.formula_value} (l = {row.sigma_length})")


def _cmd_conjecture_check(args) -> int:
    rs = build_root_system(args.type)
    if (args.node is None) == (args.ideal is None):
        raise ValueError("specify exactly one of --node (nilradical) or --ideal")
    if args.node is not None:
        rep = anr.conjecture_check(rs, _node_in(rs, args, args.node))
    else:
        gens = _parse_roots(rs, args.ideal)
        rep = anr.maximal_ideal_report(rs, ideal_generated(rs, gens))
    if args.json:
        data = rep.to_json(rs)
        if rep.node is not None:
            data["node"] = _node_out(rs, args, rep.node)
        _print_json(data)
    else:
        _report_human(rs, args, rep)
    return 0


def _cmd_hasse(args) -> int:
    rs = build_root_system(args.type)
    rep = anr.conjecture_check(rs, _node_in(rs, args, args.node))

    def nid(s):
        return "S_" + "_".join(str(i) for i in s) if s else "S_empty"

    lines = ["digraph bruhat {"]
    for r in rep.rows:
        label = "{" + _labels(rs, r.orth_set) + "}" if r.orth_set else "{}"
        lines.append(f'  {nid(r.orth_set)} [label="{label}\\ndim {r.dim_actual}"];')
    for lo, hi in rep.covers:
        lines.append(f"  {nid(lo)} -> {nid(hi)};")
    lines.append("}")
    print("\n".join(lines))
    return 0


def _cmd_paper_suite(args) -> int:
    from . import suite

    ok = suite.run(only=args.only, seed=args.seed)
    return 0 if ok else 1


def _roots_options(p):
    p.add_argument("type")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_roots)


def _ideals_options(p):
    p.add_argument("type")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--abelian", action="store_true", help="list all (default)")
    which.add_argument("--maximal", action="store_true")
    which.add_argument("--anr", action="store_true", help="list abelian nilradicals")
    which.add_argument("--shape", help="type-A Young diagram rows")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_ideals)


def _orbits_options(p):
    p.add_argument("type")
    _ideal_spec_options(p)
    output = p.add_mutually_exclusive_group()
    output.add_argument("--count", action="store_true", help="print only the orbit count")
    output.add_argument("--json", action="store_true")
    output.add_argument("--csv", action="store_true")
    p.add_argument("--dims", action="store_true", help="text table: orbit dimensions")
    p.add_argument("--dual", action="store_true", help="text table: Pyasetskii duals")
    p.set_defaults(fn=_cmd_orbits, usage_error=p.error)


def _cascade_options(p):
    p.add_argument("type")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_cascade)


def _dual_options(p):
    p.add_argument("type")
    _ideal_spec_options(p)
    p.add_argument("--set", required=True, help="comma-separated roots of S")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_dual)


def _normal_form_options(p):
    p.add_argument("type")
    _ideal_spec_options(p)
    p.add_argument("--vector", required=True,
                   help='comma-separated root:value pairs, e.g. "e1-e4:3/2,e2-e6:-1"')
    p.add_argument("--dual", action="store_true", help="treat input as a covector")
    p.add_argument("--transcript", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_normal_form)


def _structure_table_options(p):
    p.add_argument("type")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_structure_table)


def _count_anr_options(p):
    p.add_argument("type")
    p.add_argument("--node", type=int, help="1-based simple-root number")
    p.add_argument("--csv", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_count_anr)


def _conjecture_check_options(p):
    p.add_argument("type")
    p.add_argument("--node", type=int)
    p.add_argument("--ideal", help="generators of a maximal abelian non-nilradical ideal")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_conjecture_check)


def _hasse_options(p):
    p.add_argument("type")
    p.add_argument("--node", type=int, required=True)
    p.add_argument("--dot", action="store_true", help="DOT output (the only format)")
    p.set_defaults(fn=_cmd_hasse)


def _paper_suite_options(p):
    from . import suite

    p.add_argument("--only", help="filter items by number or name substring")
    p.add_argument("--seed", type=int, default=suite.DEFAULT_SEED)
    p.set_defaults(fn=_cmd_paper_suite)


# name, help, and the function that adds the subcommand's arguments
_SUBCOMMANDS = (
    ("roots", "print the positive-root table", _roots_options),
    ("ideals", "list abelian ideals", _ideals_options),
    ("orbits", "orbit labels of one abelian ideal", _orbits_options),
    ("cascade", "Kostant's cascade of the type", _cascade_options),
    ("dual", "Pyasetskii dual of one orbit label", _dual_options),
    ("normal-form", "reduce a vector to its orbit label", _normal_form_options),
    ("structure-table", "Chevalley structure constants", _structure_table_options),
    ("count-anr", "orbit counts of abelian nilradicals", _count_anr_options),
    ("conjecture-check", "order/dimension evidence for one nilradical or maximal ideal",
     _conjecture_check_options),
    ("hasse", "DOT digraph of Bruhat covers on the labels", _hasse_options),
    ("paper-suite", "run the full verification suite", _paper_suite_options),
)


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The argument parser, with one subcommand or all of them.

    Given a command, only that subparser is built.  The metavar then names
    all of them, so that the top-level usage line, which an unrecognized
    argument prints, reads the same as the full parser's.
    """
    parser = argparse.ArgumentParser(
        prog="borel-orbits",
        description="B-orbit combinatorics in abelian ideals of a Borel subalgebra")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--numbering", choices=("bourbaki", "vinberg"),
                        help=f"simple-root numbering convention "
                             f"(default from ${_NUMBERING_ENV} or bourbaki)")
    # without a command, argparse spells the same metavar from the choices;
    # setting it would rename "command" in the missing-command error
    metavar = None if command is None else \
        "{" + ",".join(name for name, _, _ in _SUBCOMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, help_text, options in _SUBCOMMANDS:
        if command in (None, name):
            options(sub.add_parser(name, help=help_text, parents=[common]))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the subcommand is the first argument; anything else there (-h, --help,
    # an unknown command, none) builds every subcommand's arguments
    names = {name for name, _, _ in _SUBCOMMANDS}
    args = build_parser(argv[0] if argv and argv[0] in names else None).parse_args(argv)
    try:
        code = args.fn(args)
        # a reader that closed the pipe early shows up here at the latest
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # as the Python docs advise for SIGPIPE: point stdout at devnull so
        # that the flush at exit cannot fail again, and exit quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
