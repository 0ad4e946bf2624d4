"""Forked workers: a job's shares run in this process and in children made
with os.fork.  The only module that forks; it imports nothing of cutlab."""
from __future__ import annotations

import os
import pickle


def _read_all(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def _fork_map(job, n: int, name) -> list:
    """[job(0), ..., job(n - 1)]: job(0) runs in this process and every
    other in a forked child, which pickles its result, or the Exception it
    raised, to a pipe and ends with os._exit.  Errors are raised in job
    order, as a serial loop would raise them: this process's own first,
    then a child's Exception, or a RuntimeError naming ``name(w)`` for a
    child that ended without a result.  Every child is reaped before this
    returns or raises; when this process's own share raises, the children
    are killed first."""
    kids, data = [], []
    done = False
    try:
        for w in range(1, n):
            rfd, wfd = os.pipe()
            pid = os.fork()
            if pid == 0:                    # child: never returns
                code = 1
                try:
                    os.close(rfd)
                    try:
                        out = (True, job(w))
                    except Exception as ex:
                        out = (False, ex)
                    with os.fdopen(wfd, "wb") as fh:
                        pickle.dump(out, fh, pickle.HIGHEST_PROTOCOL)
                    code = 0
                finally:
                    os._exit(code)
            os.close(wfd)
            kids.append((pid, rfd))
        results = [job(0)]
        data = [_read_all(rfd) for _, rfd in kids]
        done = True
    finally:
        codes = []
        for pid, rfd in kids:
            os.close(rfd)
            if not done:
                import signal       # only on this path: import cutlab stays lean
                os.kill(pid, signal.SIGKILL)
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for w, (raw, code) in enumerate(zip(data, codes), start=1):
        if code != 0 or not raw:
            raise RuntimeError(f"{name(w)} ended without a result")
        ok, value = pickle.loads(raw)
        if not ok:
            raise value
        results.append(value)
    return results


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:              # no affinity call on this platform
        return os.cpu_count() or 1


def _worker_count(workers: int | None, shares: int) -> int:
    """The processes to run ``shares`` independent shares on: ``workers``
    (None: one per CPU this process may run on), at most one per share,
    and one where os.fork is missing."""
    if workers is None:
        workers = _cpus()
    elif workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    return max(1, min(workers, shares)) if hasattr(os, "fork") else 1
