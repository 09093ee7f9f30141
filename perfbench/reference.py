"""A fixed reference kernel that gauges how fast the machine runs right now.

On a shared host the speed of a core swings by up to 1.8x within seconds, so
an op's wall time says as much about the neighbours as about resq.  The
benchmark times this kernel right before and right after every timed op and
every set-up, and scales the op by it: ``normalised(wall_s, ref_s, kernel)``
is the op's time in seconds at the speed at which the kernel takes its
``nominal_s``.  The kernel never touches resq, so no change to the program
moves it.

Each workload has a kernel with its op's mix of work (run.WORKLOADS), since
kinds of work slow down by different factors: LAPACK calls (``inv`` and
``eigvalsh``) on dense matrices of the sizes ``lapack_n``, then Python-level
formatting of ``rows`` rows of 200 floats.  On energy_large a kernel with
half its time in formatting moved 1.5x as much as the op and spread the
normalised median by 0.11 over ten seeds; LAPACK alone at n = 1000 brought
that to 0.04.

The kernel runs in a process of its own (``ReferenceProcess``), which waits
on a pipe while the workload runs: its memory stays out of the workload
process's peak RSS and the program cannot reach its state.  Run as a script,
this file is that process: it answers each line on stdin with one timing.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import numpy as np

COLS = 200


class Reference:
    """Seeded inputs of one kernel, built once; ``time()`` runs it once."""

    def __init__(self, lapack_n: list[int], rows: int, seed: int = 0) -> None:
        rng = np.random.default_rng(seed)
        self.spds = []
        for m in lapack_n:
            a = rng.standard_normal((m, m))
            self.spds.append(a @ a.T + m * np.eye(m))
        self.rows = rng.standard_normal((rows, COLS)).tolist()

    def time(self) -> float:
        t0 = time.perf_counter()
        for spd in self.spds:
            np.linalg.inv(spd)
            np.linalg.eigvalsh(spd)
        "\n".join(",".join(repr(x) for x in row) for row in self.rows)
        return time.perf_counter() - t0


def normalised(wall_s: float, ref_s: float, kernel: dict) -> float:
    """``wall_s`` scaled to the speed at which the kernel takes its nominal_s."""
    return wall_s * kernel["nominal_s"] / ref_s


class ReferenceProcess:
    """A kernel (a dict of run.WORKLOADS) in a child process; ``time()`` runs
    it once there.

    Use as a context manager: leaving it stops the child and waits for it.
    """

    def __init__(self, kernel: dict, env: dict | None = None) -> None:
        self.kernel, self.env = kernel, env

    def __enter__(self) -> "ReferenceProcess":
        self.proc = subprocess.Popen([sys.executable, __file__, json.dumps(self.kernel)],
                                     env=self.env, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        try:
            self.time()  # the first run pays for page faults and lazy set-up
        except BaseException:
            self._stop()
            raise
        return self

    def time(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the reference process ended with {self.proc.wait()}")
        return float(line)

    def _stop(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __exit__(self, *exc) -> None:
        self._stop()


def main() -> int:
    kernel = json.loads(sys.argv[1])
    reference = Reference(kernel["lapack_n"], kernel["rows"])
    while sys.stdin.readline():
        print(repr(reference.time()), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
