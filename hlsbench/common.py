"""Shared plumbing: paths, the clean environment, output digests,
statistics and process accounting."""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import signal
import statistics
import sys
import threading
import time

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected"
#: run artefacts (results, traces, exact-count state, scratch dirs);
#: all inside the checkout and ignored by git.
OUT = ROOT / ".bench_out"


def have_program() -> bool:
    return (SRC / "repro" / "flow" / "cli.py").is_file()


def use_program() -> None:
    """Import ``repro`` from the checkout's sources, with no inherited
    ``REPRO_*`` knob in effect."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def clean_env(knobs: dict[str, str]) -> dict[str, str]:
    """The environment for the program's processes: the caller's,
    minus every inherited ``REPRO_*`` knob, plus ``knobs`` (the only
    ones a workload declares) and the checkout's sources on the path."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env.update(knobs)
    env["PYTHONPATH"] = str(SRC)
    return env


# -- output digests (shared with make_expected.py) ---------------------

def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cycles_digest(faults, result) -> str:
    """Digest of a fault -> first-detection-cycle map, in fault order."""
    return sha("\n".join(f"{f.net}/{f.stuck_at}:{result[f]}"
                         for f in faults))


def dmachine_lines(stdout: str) -> list[str]:
    """The d_machine table without its ``time (s)`` column (the only
    part of the CLI output that changes between identical runs)."""
    out, cut = [], None
    for line in stdout.splitlines():
        if "time (s)" in line:
            cut = line.index("time (s)")
        elif line.startswith(("==", "note:")):
            cut = None
        out.append(line[:cut].rstrip() if cut is not None else line)
    return out


# -- statistics ---------------------------------------------------------

def median(values) -> float:
    return statistics.median(values) if values else 0.0


def p95(values) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop (median of 5): a host-speed
    stamp to read next to the timings."""
    def once():
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        return time.perf_counter() - t0
    return round(statistics.median(once() for _ in range(5)), 5)


# -- processes ----------------------------------------------------------

def _stat_fields(pid: int) -> list[str] | None:
    try:
        raw = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # comm may hold spaces; fields after it are space separated
    return raw[raw.rindex(")") + 2:].split()


def session_pids(sids) -> dict[int, list[int]]:
    """Live (non-zombie) processes of each session in ``sids``."""
    found: dict[int, list[int]] = {sid: [] for sid in sids}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        # fields[0] is the state, fields[3] the session id
        if fields and fields[0] != "Z" and int(fields[3]) in found:
            found[int(fields[3])].append(int(entry))
    return found


def peak_rss_kb(pid: int) -> int:
    try:
        for line in pathlib.Path(f"/proc/{pid}/status").read_text() \
                .splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def describe(pid: int) -> str:
    """``pid`` and the start of its command line."""
    try:
        cmd = pathlib.Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return str(pid)
    return f"{pid} ({cmd.replace(bytes(1), b' ').decode()[:100].strip()})"


class SessionWatch:
    """Peak memory of the processes the benchmark starts.  Each child
    runs with ``start_new_session``, so a session is one child and
    everything it starts (pool workers, resource trackers).  A
    session's peak is the sum of its processes' own peak RSS, sampled
    while they live; :meth:`peak_mb` is the largest session's."""

    def __init__(self, interval: float = 0.25) -> None:
        self.interval = interval
        self.peaks: dict[int, dict[int, int]] = {}
        self.live: set[int] = set()  # sessions still worth sampling
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def add(self, sid: int) -> None:
        with self._lock:
            self.peaks.setdefault(sid, {})
            self.live.add(sid)

    def _record(self, sid: int, pid: int, kb: int) -> None:
        with self._lock:
            procs = self.peaks.setdefault(sid, {})
            procs[pid] = max(procs.get(pid, 0), kb)

    def sample(self) -> None:
        with self._lock:
            sids = list(self.live)
        for sid, pids in session_pids(sids).items():
            for pid in pids:
                self._record(sid, pid, peak_rss_kb(pid))
            if not pids:
                with self._lock:
                    self.live.discard(sid)

    def note(self, pid: int, kb: int) -> None:
        """A reaped session leader's own ``ru_maxrss`` (exact even if
        it ended between samples)."""
        self._record(pid, pid, kb)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def peak_mb(self, sid: int | None = None) -> float:
        with self._lock:
            sums = [sum(procs.values()) for s, procs in self.peaks.items()
                    if sid is None or s == sid]
        return max(sums, default=0) / 1024.0

    def close(self, grace: float = 2.0) -> list[str]:
        """Stop sampling; kill whatever is still alive in the watched
        sessions after ``grace`` seconds and name those processes."""
        self._stop.set()
        self._thread.join(timeout=5)
        deadline = time.monotonic() + grace
        while True:
            with self._lock:
                sids = list(self.peaks)
            left = [p for pids in session_pids(sids).values()
                    for p in pids]
            if not left or time.monotonic() > deadline:
                break
            time.sleep(0.1)
        named = [describe(pid) for pid in left]
        for pid in left:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        return named


def wait_child(proc, watch: SessionWatch | None = None,
               timeout: float | None = None) -> int:
    """Reap ``proc`` (a ``subprocess.Popen``) with ``os.wait4`` so its
    peak RSS is recorded; kills it past ``timeout`` seconds."""
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if deadline is not None and time.monotonic() > deadline:
            proc.kill()
            deadline = None
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if watch is not None:
        watch.note(proc.pid, usage.ru_maxrss)
    return proc.returncode


def write_json(path: pathlib.Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
