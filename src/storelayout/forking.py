"""Contiguous ranges of independent work, split over forked worker processes.

One protocol serves every caller: ``usable_parts`` says how many processes a
split of ``count`` items would use, and ``split_ranges`` runs ``work(lo, hi)``
over that many contiguous ranges, the first in this process and each other
one in a forked worker that sends its output back through a pipe. The tabu
lanes of a solve and the sections of an LP file are split this way.
"""

from __future__ import annotations

import os
import threading


def usable_parts(count: int) -> int:
    """How many processes ``split_ranges`` may run ``count`` items over: one
    per usable CPU and at most one per item. It is 1, so that all items run
    here as one range, on one usable CPU, where fork does not exist, and
    while another thread runs, since a fork copies whatever lock that thread
    holds."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    parts = min(cpus, count)
    if parts < 2 or threading.active_count() > 1:
        return 1
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return parts


def split_ranges(work, count: int, parts: int) -> list:
    """work(lo, hi) over ``parts`` contiguous ranges of the items 0 .. count
    - 1 (``usable_parts(count)`` of them): the first in this process, each
    other one in a forked worker that sends back its output. An item is any
    unit of independent work, such as a tabu lane or a section of a file.
    Returns the outputs in range order; a worker's exception is raised here,
    and no worker outlives the call. One part runs work(0, count) here and
    forks nothing.

    Workers are forked because they need the caller's state and start in
    microseconds; a spawned worker would first import the package. The
    workers start before the first range runs here, so anything they need
    from the caller exists before the call."""
    if parts < 2:
        return [work(0, count)]
    import multiprocessing

    bounds = [(count * w // parts, count * (w + 1) // parts) for w in range(parts)]
    ctx = multiprocessing.get_context("fork")
    workers = []
    finished = False
    try:
        for lo, hi in bounds[1:]:
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_range_worker, args=(work, lo, hi, send), daemon=True)
            proc.start()
            send.close()
            workers.append((proc, recv))
        outputs = [work(*bounds[0])]
        for proc, recv in workers:
            try:
                ok, value = recv.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(f"forked worker exited with code {proc.exitcode}") from None
            if not ok:
                raise value
            outputs.append(value)
        finished = True
    finally:
        for proc, recv in workers:
            recv.close()
            if not finished:
                proc.terminate()
            proc.join()
    return outputs


def _range_worker(work, lo: int, hi: int, send) -> None:
    """Body of a forked worker: sends (True, work's output) or (False, the
    exception work raised). A worker that sends nothing (say, its exception
    does not pickle) shows as an exit code in the caller."""
    try:
        message = (True, work(lo, hi))
    except BaseException as exc:
        message = (False, exc)
    send.send(message)
