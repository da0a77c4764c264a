"""Child processes of the benchmark and their line protocol."""

from __future__ import annotations

import subprocess
import sys
import threading
from queue import Empty, Queue
from time import perf_counter

from workloads import ROOT

#: A child that has not reported within this many seconds has failed.
CHILD_TIMEOUT_S = 150.0


class Child:
    """A child process whose stdout lines arrive on a queue."""

    def __init__(self, argv: list[str]) -> None:
        self.started = perf_counter()
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, text=True, bufsize=1
        )
        self.lines: Queue = Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def expect(self, prefix: str, timeout: float = CHILD_TIMEOUT_S) -> str:
        """The rest of the next line starting with ``prefix``."""
        end = perf_counter() + timeout
        while True:
            try:
                line = self.lines.get(timeout=max(0.01, end - perf_counter()))
            except Empty:
                raise RuntimeError(f"child did not report {prefix!r} in time") from None
            if line is None:
                raise RuntimeError(f"child exited before reporting {prefix!r}")
            if line.startswith(prefix):
                return line[len(prefix):].strip()

    def finish(self, timeout: float = 30.0) -> int:
        try:
            return self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise
        finally:
            self._reader.join(timeout=5)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def child_argv(args, role: str, *extra: str) -> list[str]:
    argv = [
        sys.executable, str(ROOT / "perfbench" / "run.py"), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.plant:
        argv += ["--plant", args.plant]
    return argv + list(extra)


