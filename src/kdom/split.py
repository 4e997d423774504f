"""An ordered map over a batch of independent items, split across two CPUs.

split_map(fn, items) returns [fn(x) for x in items].  A batch of at least
SPLIT_MIN items is split by one fork where os.fork exists, the process
may run on two or more CPUs and it runs one thread (a forked copy of a
threaded process can wait forever on a lock another thread held).

The two processes schedule themselves (Kruskal and Weiss 1985): before
the fork the parent cuts the batch into at most 256 chunks of
ceil(len(items) / 256) consecutive items and writes one byte per chunk,
its index, into a ticket pipe, whose write end it then closes.  256
bytes are below the 512-byte pipe buffer POSIX guarantees, so that write
never blocks.  After the fork each process reads one ticket at a time,
computes that chunk, and stops at end of file; a one-byte read is
atomic, so each chunk is computed by exactly one process, and whichever
process is free takes the next one.  The child writes {chunk: results}
to a result pipe as marshal bytes and leaves by os._exit; the parent
reads the pipe, reaps the child and puts the chunks back in order.  So
fn's results must be marshal-able (ints, strings, None, and tuples,
lists and dicts of them), and whatever else fn does in the child
(counters, caches) is lost with it.

If either process raises, the child is killed and reaped and the whole
batch runs again serially, so an error is exactly the serial one: the
same exception, raised by the first failing item.  If a pipe or the
fork cannot be made, the pipes made are closed and the batch runs
serially.

SPLIT_MIN is set near the break-even of a level's gamma3 and kappa, the
cheapest batch that splits.  On a 2-core x86-64 VM with Python 3.11
(medians of 101 alternating serial and split runs, items spread over
level 7) they cost about 0.085 to 0.09 ms a graph and the fork round
trip about 2.6 ms; the split loses about 0.3 ms at 96 items, first wins
at 128 (by about 0.7 ms, in 70 of 101 pairs) and wins in 94 of 101 at
160, so level 6's 112 graphs stay serial.  A level's parents (about
3 ms each at n = 8) and the graphs of `invariants` gain from a handful
of items; the audit's gamma (about 0.03 ms a graph) needs about 350.
"""

import marshal
import os
import sys

SPLIT_MIN = 128
_TICKETS = 256  # one byte each, below POSIX's 512-byte minimum pipe buffer
_SIGKILL = 9  # POSIX, where os.fork exists


def _cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def split_map(fn, items):
    """[fn(x) for x in items], with the chunks shared by this process and a forked child."""
    items = list(items)
    threading = sys.modules.get("threading")  # never imported: one thread
    if (
        len(items) < SPLIT_MIN
        or not hasattr(os, "fork")
        or _cpus() < 2
        or threading is not None and threading.active_count() > 1
    ):
        return [fn(x) for x in items]
    size = -(-len(items) // _TICKETS)
    chunks = -(-len(items) // size)
    fds = []
    try:
        fds += os.pipe()
        os.write(fds[1], bytes(range(chunks)))  # at most 256 bytes: never blocks
        os.close(fds.pop())
        fds += os.pipe()
        pid = os.fork()
    except OSError:  # out of descriptors or processes
        for fd in fds:
            os.close(fd)
        return [fn(x) for x in items]
    tickets, read, write = fds

    def drain():
        """{chunk: its results} for each ticket this process draws."""
        done = {}
        while ticket := os.read(tickets, 1):
            start = ticket[0] * size
            done[ticket[0]] = [fn(x) for x in items[start : start + size]]
        return done

    if pid == 0:
        status = 1
        try:
            os.close(read)
            data = marshal.dumps(drain())
            with open(write, "wb") as pipe:
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    data = None
    try:
        with open(read, "rb") as pipe:
            done = drain()
            data = pipe.read()
    except Exception:
        pass  # the serial rerun below raises it again, from the first failing item
    finally:
        os.close(tickets)
        if data is None:
            os.kill(pid, _SIGKILL)
        status = os.waitpid(pid, 0)[1]
    if data is None or status != 0:
        return [fn(x) for x in items]
    done.update(marshal.loads(data))
    return [y for chunk in range(chunks) for y in done[chunk]]
