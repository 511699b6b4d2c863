"""Independent blocks of work run at once, one per CPU, by forking.

`cut` divides a count (coverage trials, bytes of a records file) into one
contiguous block per CPU this process may run on, none below a floor, and
`in_blocks` runs a function over the blocks: the first in this process,
every other in a forked child that pipes back its pickled result.  On Linux
the CPU count is the process's affinity, so `taskset` or a cpuset sets it;
one CPU, or too little work for two blocks, forks nothing.
"""

from __future__ import annotations

import os
import pickle
import signal


def cut(total: int, floor: int) -> list[range]:
    """range(total) in one contiguous block per CPU this process may run on, but no block shorter than `floor`,
    and always at least one block."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    count = max(1, min(cpus, total // floor))
    cuts = [total * i // count for i in range(count + 1)]
    return [range(a, b) for a, b in zip(cuts, cuts[1:])]


def in_blocks(run, blocks: list) -> list:
    """[run(block) for block in blocks], the first block run here and every other in a forked child.

    A block whose child did not end cleanly, or that could not be forked (at a
    process limit, say), runs here instead, so its error raises here, as in a
    single loop; the earliest block raises first.  Every child is waited for,
    and on an error or an interrupt killed first.
    """
    children = []  # (pid, read end of its pipe, block); pid None: the block runs here
    try:
        for block in blocks[1:]:
            try:
                children.append((*_fork(run, block), block))
            except OSError:  # no pipe or no process to be had, at a limit say
                children.append((None, None, block))
        results = [run(blocks[0])]
        while children:
            pid, pipe, block = children[0]
            ok = False
            if pid is not None:
                with pipe:
                    data = pipe.read()
                ok = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
            children.pop(0)
            results.append(pickle.loads(data) if ok else run(block))
        return results
    finally:
        for pid, pipe, _ in children:
            if pid is not None:
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _fork(run, block):
    """(pid, read end of its pipe) of a child that pipes back the pickled run(block) and exits 0, or exits 1 if it
    raised.

    Fork is safe here although numpy's OpenBLAS keeps a second OS thread: the
    child calls no BLAS routine, and it leaves by os._exit, so it runs no
    atexit handler and flushes no buffer it copied (stdout, an open output).
    """
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read)
            with open(write, "wb") as out:
                pickle.dump(run(block), out)
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    return pid, open(read, "rb")


__all__ = ["cut", "in_blocks"]
