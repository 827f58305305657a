"""Run one CLI child under a memory cap and a wall-clock timeout.

Every child is `python -m debruijn_arrays.cli ...` against the checkout's
`src/`.  The runner feeds stdin, drains stdout and stderr together (so a
large output cannot deadlock either pipe), notes when the first stdout byte
arrives, and reaps the child with wait4 to read its own peak RSS.
"""

from __future__ import annotations

import os
import resource
import selectors
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

# Address-space cap for every child (and the pool workers it forks).  Well
# below the memory of a small shared machine; a child that needs more gets a
# MemoryError instead of exhausting the host.
MEMORY_CAP_MB = 1024


@dataclass
class ChildResult:
    exit_code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    first_byte_s: Optional[float]
    max_rss_mb: float
    timed_out: bool

    def cause(self) -> str:
        """A one-word reason for a failed child: timeout, an exception name
        from the traceback's last line, or the exit code."""
        if self.timed_out:
            return "timeout"
        lines = self.stderr.decode("utf-8", "replace").strip().splitlines()
        last = lines[-1] if lines else ""
        name = last.split(":", 1)[0].strip()
        if name.endswith("Error") or name.endswith("Exception"):
            return name
        if self.exit_code < 0:
            return f"signal {-self.exit_code}"
        return f"exit {self.exit_code}"


def _cap_memory():
    cap = MEMORY_CAP_MB << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("DEBRUIJN_ARRAYS_WORKERS", None)
    return env


def run_cli(root: Path, args: list, stdin: bytes = b"",
            timeout_s: float = 60.0) -> ChildResult:
    """Run the CLI once; never raises for a failing or hanging child."""
    argv = [sys.executable, "-m", "debruijn_arrays.cli", *map(str, args)]
    return run_child(argv, root, cli_env(root), stdin, timeout_s)


def run_child(argv: list, cwd: Path, env: dict, stdin: bytes = b"",
              timeout_s: float = 60.0) -> ChildResult:
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            preexec_fn=_cap_memory,
                            start_new_session=True)
    deadline = start + timeout_s
    out, err = [], []
    first_byte = None
    timed_out = False
    sel = selectors.DefaultSelector()
    try:
        if stdin:
            os.set_blocking(proc.stdin.fileno(), False)
            sel.register(proc.stdin, selectors.EVENT_WRITE)
        else:
            proc.stdin.close()
        sel.register(proc.stdout, selectors.EVENT_READ, out)
        sel.register(proc.stderr, selectors.EVENT_READ, err)
        view = memoryview(stdin)
        while sel.get_map():
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                timed_out = True
                # the child's own pool workers share its session: end them all
                os.killpg(proc.pid, signal.SIGKILL)
                break
            for key, _ in sel.select(remaining):
                if key.fileobj is proc.stdin:
                    try:
                        view = view[os.write(key.fd, view[:65536]):]
                    except BrokenPipeError:
                        view = view[:0]
                    if not view:
                        sel.unregister(proc.stdin)
                        proc.stdin.close()
                    continue
                chunk = os.read(key.fd, 1 << 16)
                if not chunk:
                    sel.unregister(key.fileobj)
                    continue
                if key.data is out and first_byte is None:
                    first_byte = time.perf_counter() - start
                key.data.append(chunk)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        raise
    finally:
        sel.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - start
        for stream in (proc.stdin, proc.stdout, proc.stderr):
            if not stream.closed:
                stream.close()
    return ChildResult(exit_code=proc.returncode, stdout=b"".join(out),
                       stderr=b"".join(err), wall_s=wall, first_byte_s=first_byte,
                       max_rss_mb=usage.ru_maxrss / 1024, timed_out=timed_out)
