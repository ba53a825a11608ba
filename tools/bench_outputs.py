"""Digests of every benchmark call's outputs, to compare two checkouts.

Usage, from anywhere:

    python3 tools/bench_outputs.py --seeds 1,5,77 [--root CHECKOUT] > digests.json

Builds the job lists of every workload in ``bench/jobs.py`` for each seed,
adds one ``resolve --format json`` call per distinct ``--poly`` germ in
them (``report`` prints no factor texts, blowup sites or blowup order),
one ``e1``, ``hc``, ``mclean``, ``check-euler``, ``separate`` and
``weights`` call per distinct ``--poly`` and ``--m`` of a ``report`` call
(no benchmark call runs those six), one ``zeta`` call per distinct germ
(``report`` prints the zeta factors of the germ, not the command's JSON)
and ``verify-fibration`` at m = level = 1 and 2 with q = 3, and repeats
every call with ``--format table`` in place of ``--format json``, since
no benchmark call prints the text table.  Every one of those command
lines takes the CLI's quick parse (``cli._quick_args``), so it adds the
fixed ``ARGPARSE_CALLS``, which argparse parses, refuses or answers with
help.  It runs each call through
``contactloci.cli.main`` in this process, and prints one JSON object
mapping each command line (its argv joined by spaces) to the sha256 of
its exit code, stdout and stderr.  Seeds 1, 5 and 77 give 2016 benchmark
calls, 709 germs and 999 report pairs, so 2016 + 2 * 709 + 6 * 999 + 2 =
9430 calls, each in both formats, and the 12 ``ARGPARSE_CALLS``: 18872
digests in all.  Help and usage text is wrapped at ``COLUMNS``, which is
set to 80 here.
``oracle-count`` reports its own wall time as ``elapsed`` in JSON; that
line is dropped before hashing.
All calls share one process, so consecutive calls on one ``--poly`` text
take the CLI's germ memo (``cli._parsed``, ``cli._resolved``) on its hit
path; a checkout from before that memo runs every call cold, so equal
digest files there and here show that a hit prints what a miss prints.
Both ``src`` and ``bench`` are read from ``--root`` (default: the checkout
holding this script), and nothing is written there.  Two checkouts give
equal outputs exactly when their digest files compare equal with ``cmp``.
Needs only the standard library, and sympy for a germ that reaches
``sympy.factor_list``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import sys
from pathlib import Path

ELAPSED = re.compile(r'\n *"elapsed": [^\n]*')
# command lines that the CLI leaves to argparse
ARGPARSE_CALLS = [
    ["report", "--poly", "x*y", "--m", "2", "--m", "3", "--format", "json"],  # the last --m
    ["report", "--poly", "x^2+y^3", "--m", "2", "--primes", "3,5,7", "--lev", "2", "--format", "json"],
    ["oracle-count", "--poly", "x*y", "--m", "2", "--q", "3", "--strata=1"],
    ["report", "--poly", "-x^2+y^3", "--m", "2"],
    ["report", "--poly", "x*y", "--m", "2", "--format", "yaml"],
    ["report", "--poly", "x*y", "--m=0"],
    ["report", "--poly", "x*y", "--m", "2", "--primes", "3,,5"],
    ["report", "--poly", "x*y", "--config", "c.json", "--m", "2"],
    ["report", "--poly", "x*y"],
    ["report", "-h"],
    ["--help"],
    [],
]


def digest(main, argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses a command line this way
            code = exc.code
        except Exception as exc:  # a crash is an output too
            code = f"raised {type(exc).__name__}: {exc}"
    stdout = out.getvalue()
    if argv[:1] == ["oracle-count"]:
        stdout = ELAPSED.sub("", stdout)
    return hashlib.sha256(json.dumps([code, stdout, err.getvalue()]).encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="comma separated seeds, e.g. 1,5,77")
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    from contactloci.cli import main as cli_main
    from jobs import WORKLOADS, generate

    calls = [
        call
        for seed in (int(s) for s in args.seeds.split(","))
        for workload in WORKLOADS
        for job in generate(workload, seed)
        for call in job["calls"]
    ]
    germs = dict.fromkeys(arg for call in calls for arg in call if arg.startswith("--poly="))
    calls += [["resolve", germ, "--format", "json"] for germ in germs]
    pages = dict.fromkeys(
        (call[1], call[call.index("--m") + 1]) for call in calls if call[0] == "report"
    )
    calls += [
        [command, germ, "--m", m, "--format", "json"]
        for germ, m in pages
        for command in ("e1", "hc", "mclean", "check-euler", "separate", "weights")
    ]
    calls += [["zeta", germ, "--format", "json"] for germ in germs]
    calls += [
        ["verify-fibration", "--m", m, "--level", m, "--q", "3", "--format", "json"]
        for m in ("1", "2")
    ]
    calls += [[*call[:-1], "table"] for call in calls if call[-2:] == ["--format", "json"]]
    calls += ARGPARSE_CALLS
    os.environ["COLUMNS"] = "80"
    digests = {" ".join(call): digest(cli_main, call) for call in calls}
    print(json.dumps(digests, indent=0, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
