"""One fresh benchmark process: import, set up, run one workload once.

run.py starts this script once per sample; it is not meant to be run by
hand.  Usage:

    child.py MODE WORKLOAD --report PATH [--trace] [--corpus PATH] [--seed N]

MODE is ``setup`` (import the package and build the workload's root
systems, then exit), ``run`` (set up, then do the workload once) or
``corpus`` (write the normal-form corpus for --seed to --corpus).  The
CLI workloads write the command's stdout to this process's stdout; the
phase times, and for normal-form the checked results, go to --report.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

CLI = {
    "orbit-table": ["orbits", "C8", "--anr", "8", "--csv"],
    "conjecture": ["conjecture-check", "C6", "--node", "6", "--json"],
    "label-count": ["count-anr", "C11", "--node", "11"],
}


def _setup(workload: str) -> None:
    import borel_orbits as bo

    if workload in CLI:
        bo.build_root_system(CLI[workload][1])
        return
    import corpus

    for typ in corpus.TYPES:
        bo.build_structure_table(bo.build_root_system(typ))


def _prepare(path: str) -> list:
    """Corpus entries with roots turned into this build's root indices."""
    import borel_orbits as bo

    with open(path) as fh:
        entries = json.load(fh)
    out = []
    for typ, kind, side, ideal, vec, label in entries:
        rs = bo.build_root_system(typ)
        idx = rs.root_index
        out.append((rs, kind, side,
                    frozenset(idx[tuple(r)] for r in ideal),
                    {idx[tuple(r)]: Fraction(c) for r, c in vec},
                    frozenset(idx[tuple(r)] for r in label)))
    return out


def _reduce_all(items: list):
    """Reduce and replay every entry; returns (results, failed)."""
    import borel_orbits as bo

    results = []
    failed = 0
    for rs, kind, side, ideal, vec, expected in items:
        reduce = bo.reduce_in_ideal if side == "primal" else bo.reduce_in_dual
        try:
            label, transcript = reduce(rs, ideal, vec)
            back = bo.replay(rs, ideal, transcript, vec)
        except Exception as exc:  # a failed reduction counts; the batch goes on
            results.append(("error", type(exc).__name__, str(exc)))
            failed += 1
            continue
        ok = label == expected and back == transcript.result
        if kind == "moved":
            ok = ok and transcript.normalized and back == {g: 1 for g in expected}
        failed += not ok
        results.append((rs, label, transcript))
    return results, failed


def _digest(results: list) -> str:
    h = hashlib.sha256()
    for res in results:
        if res[0] == "error":
            h.update(repr(res).encode())
            continue
        rs, label, tr = res
        roots = rs.positive_roots
        h.update(json.dumps([
            sorted(roots[g] for g in label),
            [[roots[d], str(t)] for d, t in tr.steps],
            [str(x) for x in tr.torus],
            tr.normalized,
            sorted((roots[g], str(c)) for g, c in tr.result.items()),
        ]).encode())
    return h.hexdigest()


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("setup", "run", "corpus"))
    p.add_argument("workload", choices=sorted(CLI) + ["normal-form"])
    p.add_argument("--report")
    p.add_argument("--corpus")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()

    import borel_orbits  # noqa: F401  (import time belongs to set-up)

    if args.workload in CLI:
        from borel_orbits import cli  # loaded before the tracer patches it

    if args.mode == "corpus":
        import corpus

        with open(args.corpus, "w") as fh:
            json.dump(corpus.build(args.seed), fh, separators=(",", ":"))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    _setup(args.workload)
    setup_s = time.perf_counter() - T0
    if args.mode == "setup":
        return 0

    report = {"setup_s": setup_s}
    if args.workload in CLI:
        t1 = time.perf_counter()
        report["rc"] = cli.main(CLI[args.workload])
        sys.stdout.flush()
        report["work_s"] = time.perf_counter() - t1
    else:
        items = _prepare(args.corpus)
        t1 = time.perf_counter()
        results, failed = _reduce_all(items)
        report["work_s"] = time.perf_counter() - t1
        report.update(rc=0, items=len(items), failed=failed, digest=_digest(results))
    if tracer is not None:
        report["trace"] = tracer.snapshot()
    with open(args.report, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
