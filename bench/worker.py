"""One timed CLI invocation in a fresh interpreter.

Usage: python3 worker.py RESULT_JSON TRACE(0|1) -- CLI_ARGS...

Imports marketstates.cli, optionally installs the span recorder, times
main(CLI_ARGS) alone and writes the exit code, the time.time() at which
the import ended, wall time, the time of a fixed calibration kernel just
before and just after main, peak resident set size and (when traced) the
spans and hook counts to RESULT_JSON.
"""

import json
import resource
import sys
import time


CALIBRATION_REPEATS = 3


def calibrate() -> float:
    """Median seconds of a fixed mix of interpreter loops and small-array numpy.

    The mix mirrors the program's own (Python loops around many small
    linear-algebra calls), so the host's speed at the time shows in it as
    it shows in main. It runs only benchmark code and numpy, so no change
    to the program can move it. The median of a few short repeats ignores
    a single interrupt while still following a change of host speed that
    lasts seconds.
    """
    import numpy as np

    cov = np.cov(np.random.default_rng(0).standard_normal((400, 60)), rowvar=False)
    ridge = 4.0 * np.eye(4)
    times = []
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter()
        total = 0.0
        for i in range(1200):
            idx = [i % 60, (7 * i + 1) % 60, (13 * i + 2) % 60, (29 * i + 3) % 60]
            sub = cov[np.ix_(idx, idx)] + ridge
            total += float(np.linalg.inv(sub)[0, 0]) + np.linalg.slogdet(sub)[1]
        for x in range(120_000):
            total += x * 0.5
        times.append(time.perf_counter() - start)
    return sorted(times)[CALIBRATION_REPEATS // 2]


def run(result_path: str, traced: bool, argv: list) -> None:
    from marketstates import cli

    imported_at = time.time()
    recorder = None
    if traced:
        import spans

        recorder = spans.Recorder()
        recorder.install()

    calib_before = calibrate()
    start = time.perf_counter()
    code = cli.main(argv)
    wall = time.perf_counter() - start
    calib_after = calibrate()

    result = {
        "exit_code": code,
        "imported_at": imported_at,
        "wall_s": wall,
        "calib_s": [calib_before, calib_after],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if recorder is not None:
        result.update(
            spans=recorder.spans,
            csv_bytes=recorder.csv_bytes,
            solved_days=recorder.solved_days,
            estimate_calls=len(recorder.estimate_keys),
            repeated_estimates=recorder.repeated_estimates(),
        )
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    if len(sys.argv) < 4 or sys.argv[3] != "--":
        sys.exit(__doc__)
    run(sys.argv[1], sys.argv[2] == "1", sys.argv[4:])
