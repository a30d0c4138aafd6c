"""The fork launcher: `runner.repro` starts every stage child with
`spawn_stage` and reaps every one, after an error too, with `reap_first`.
The child gets the stage's logs on fds 1 and 2, the project root as cwd and
a scrubbed environment. The cache, the lock and the stage graph stay in
`runner`; this module imports none of them. While children run, the
orchestrator blocks on their pidfds rather than polling.

A builtin child starts warm: the orchestrator has imported the builtin's
module by the fork (while the previous child ran, or here just before it), so
each module is compiled once per run rather than once per stage. The fork is
`loctk.fork_child`, shared with the CV workers; this module adds the child's
setup.
"""

from __future__ import annotations

import os
import select
import signal
import sys
import time
from pathlib import Path

from .configmodel import StageSpec
from .loctk import StageRequest, fork_child, load_builtin, run_builtin

# Environment scrubbing: stages see only this allowlist plus names they
# declare in `env`, so nothing can silently depend on ambient variables.
ENV_ALLOWLIST = ("PATH", "HOME", "TMPDIR")


def spawn_stage(
    stage: StageSpec,
    request: StageRequest | None,
    root: Path,
    log_out: Path,
    log_err: Path,
) -> tuple[int, int]:
    """Fork the child that runs one stage: (its pid, this process's resident
    set in bytes just before the fork, 0 where unavailable).

    Only the calling thread exists in a forked child, so the caller must be
    a process that has started no threads. A builtin runs `request` in the
    child, which inherits the builtin's module imported here; a `cmd` stage
    (request None) execs `/bin/sh -c`. Each out's parent directory is made
    here, the one place that makes it, so the caller must have passed each
    out through `store.check_out_parents`.
    """
    if request is not None:
        try:
            load_builtin(request.builtin)
        except (Exception, SystemExit):
            pass  # the child imports it again and fails its own stage, with the traceback in its log
    for out in stage.outs:
        (root / out).parent.mkdir(parents=True, exist_ok=True)
    env = {key: os.environ[key] for key in (*ENV_ALLOWLIST, *stage.env) if key in os.environ}
    with open(log_out, "wb") as stdout, open(log_err, "wb") as stderr:
        rss = _resident_bytes()
        pid = fork_child(lambda: _run_child(stage, request, root, env, stdout.fileno(), stderr.fileno()))
    return pid, rss


def _resident_bytes() -> int:
    """This process's current resident set from ``/proc/self/statm``; 0 where
    that file does not exist (it is Linux-only)."""
    try:
        with open("/proc/self/statm", "rb") as statm:
            return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, IndexError, ValueError):
        return 0


def _run_child(
    stage: StageSpec, request: StageRequest | None, root: Path, env: dict[str, str], out_fd: int, err_fd: int
) -> None:
    """The forked child: stage logs on fds 1 and 2, no other fd from 3 up,
    the project root as cwd and the scrubbed env; then the shell or the builtin."""
    os.dup2(out_fd, 1)
    os.dup2(err_fd, 2)
    os.closerange(3, os.sysconf("SC_OPEN_MAX"))
    sys.stdout = open(1, "w", encoding="utf-8", closefd=False)
    sys.stderr = open(2, "w", encoding="utf-8", errors="backslashreplace", closefd=False)
    os.chdir(root)
    os.environ.clear()
    os.environ.update(env)
    if request is None:
        # the signal dispositions a shell started by Popen gets
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
        signal.signal(signal.SIGXFSZ, signal.SIG_DFL)
        os.execve("/bin/sh", ["/bin/sh", "-c", stage.cmd], env)
    run_builtin(request.builtin, request)


def reap_first(pids: list[int]) -> tuple[int, int, os.struct_rusage]:
    """Wait for the first of `pids` to exit and reap it: (pid, status, usage).

    Only these pids are waited on. The wait blocks on a pidfd per child;
    where pidfds are missing, a lone child is waited on blocking and several
    are polled.
    """
    fds: list[int] = []
    try:
        poller = select.poll()
        for pid in pids:
            fds.append(os.pidfd_open(pid))
            poller.register(fds[-1], select.POLLIN)
        pids = [pids[fds.index(poller.poll()[0][0])]]
    except (AttributeError, OSError):
        pass  # no pidfds on this platform or kernel: wait on the pids themselves
    finally:
        for fd in fds:
            os.close(fd)
    flags = 0 if len(pids) == 1 else os.WNOHANG
    while True:
        for pid in pids:
            reaped, status, usage = os.wait4(pid, flags)
            if reaped:
                return pid, status, usage
        time.sleep(0.001)
