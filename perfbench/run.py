#!/usr/bin/env python3
"""satkit's benchmark: one seeded workload, timed, every verdict checked.

Run from the root of a satkit checkout:

    python3 perfbench/run.py --workload diagram --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics listed
in BENCHMARK.json with ``--trace 0``, the per-layer ones with
``--trace 1``.  The line before it holds the run's details.  A traced run
also writes its spans to ``.perfbench_out/``.  ``--setup-probe`` times one
set-up in this fresh process and prints only that; untraced runs start
three such probes for ``setup_s``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = {"diagram": "diagram.Diagram", "certify": "certify.Certify",
             "codec": "codec.Codec", "cli-session": "cli_session.CliSession"}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    src = ROOT / "src"
    if not (src / "satkit" / "__init__.py").is_file():
        return fail(f"no satkit sources under {src}; run from a satkit checkout")
    if not (ROOT / "BENCHMARK.json").is_file():
        return fail("BENCHMARK.json is missing")
    sys.path.insert(0, str(src))
    if args.setup_probe:
        return setup_probe(args)

    import satkit.cli
    if not satkit.cli.__file__.startswith(str(src)):
        return fail(f"imported satkit from {satkit.cli.__file__}, not {src}")
    return measure(args)


def workdir_for(args) -> Path:
    outdir = ROOT / ".perfbench_out"
    outdir.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="work-", dir=outdir))


def setup_probe(args) -> int:
    """Import the workload (and with it satkit) and set it up once, timed,
    with calibration samples on either side for the speed factor."""
    import calibrate
    from spans import Tracer

    module, cls = WORKLOADS[args.workload].split(".")
    workdir = workdir_for(args)
    try:
        before = [calibrate.sample() for _ in range(3)]
        start = perf_counter()
        wl = getattr(__import__(module), cls)(workdir)
        imported = perf_counter()
        wl.setup(args.seed, Tracer(False))
        end = perf_counter()
        after = [calibrate.sample() for _ in range(3)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    factor = statistics.median(before + after) / calibrate.REF_S
    print(json.dumps({"wall_s": end - start, "import_wall_s": imported - start,
                      "factor": factor, "setup_s": (end - start) / factor}))
    return 0


def measure(args) -> int:
    import harness
    import reference

    manifest = json.loads((ROOT / "encoding.json").read_text())
    if manifest != reference.ENCODING_SPEC:
        return fail("encoding.json differs from the codec spec the reference encodes")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}

    module, cls = WORKLOADS[args.workload].split(".")
    workdir = workdir_for(args)
    argv = [str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds)]
    try:
        wl = getattr(__import__(module), cls)(workdir)
        if args.trace:
            details, values = harness.run_traced(wl, args.seed, args.seconds,
                                                 argv + ["--trace", "0"], workdir.parent,
                                                 list(units))
        else:
            details, values = harness.run_untraced(wl, args.seed, args.seconds,
                                                   argv + ["--setup-probe"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = set(units) - set(values)
    if missing:
        return fail(f"no value for {sorted(missing)}")
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps({
        "correct": details["correct"],
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
