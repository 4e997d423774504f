"""An ordered map over a batch of independent items, split across two CPUs.

split_map(fn, items) returns [fn(x) for x in items].  A batch of at least
SPLIT_MIN items is split by one fork where os.fork exists, the process
may run on two or more CPUs and it runs one thread (a forked copy of a
threaded process can wait forever on a lock another thread held).  The
child computes the odd-indexed items, writes their results to a pipe as
marshal bytes and leaves by os._exit; the parent computes the
even-indexed items, reads the pipe, reaps the child and interleaves the
two halves.  So fn's results must be marshal-able (ints, strings, None,
and tuples, lists and dicts of them), and whatever else fn does in the
child (counters, caches) is lost with it.

If either half raises, the child is killed and reaped and the whole batch
runs again serially, so an error is exactly the serial one: the same
exception, raised by the first failing item.

SPLIT_MIN is set near the break-even of a level's gamma3 and kappa, the
cheapest batch that splits: on a 2-core x86-64 VM with Python 3.11 (best
of 31 runs) they cost about 0.07 to 0.08 ms a graph at n = 7 and the fork
round trip about 2.7 ms, so the split first wins at 128 to 160 such
items, and level 6's 112 graphs stay serial, where a split would lose
about 0.5 ms.  A level's parents (156 at n = 7) and the graphs of
`invariants` gain from about 8 items; the audit's gamma (about 0.025 ms
a graph) needs about 320.
"""

import marshal
import os
import sys

SPLIT_MIN = 128
_SIGKILL = 9  # POSIX, where os.fork exists


def _cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def split_map(fn, items):
    """[fn(x) for x in items], with the odd-indexed items computed in a forked child."""
    items = list(items)
    threading = sys.modules.get("threading")  # never imported: one thread
    if (
        len(items) < SPLIT_MIN
        or not hasattr(os, "fork")
        or _cpus() < 2
        or threading is not None and threading.active_count() > 1
    ):
        return [fn(x) for x in items]
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read)
            data = marshal.dumps([fn(x) for x in items[1::2]])
            with open(write, "wb") as pipe:
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    data = None
    try:
        with open(read, "rb") as pipe:
            even = [fn(x) for x in items[::2]]
            data = pipe.read()
    except Exception:
        pass  # the serial rerun below raises it again, from the first failing item
    finally:
        if data is None:
            os.kill(pid, _SIGKILL)
        status = os.waitpid(pid, 0)[1]
    if data is None or status != 0:
        return [fn(x) for x in items]
    out = [None] * len(items)
    out[::2] = even
    out[1::2] = marshal.loads(data)
    return out
