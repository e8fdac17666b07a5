"""Happens-before checks over a recorded trace-event stream.

A disk serves one query's pages one after another, so within a query
span its ``page_read`` clock strictly increases.  A stream processes
its arrivals in time order, so ``query_arrival`` stamps never decrease
in emission order, and no query completes before it arrives.
"""


def assert_clocks_monotonic(events):
    """Assert the simulated clocks of ``events`` only move forward."""
    disk_clock = {}
    last_arrival = None
    arrived = {}
    for event in events:
        where = f"event seq {event.seq} ({event.kind}, query {event.query})"
        if event.kind == "page_read":
            key = (event.query, event.disk)
            previous = disk_clock.get(key)
            assert previous is None or event.t_ms > previous, (
                f"{where}: disk {event.disk} clock went from {previous} "
                f"to {event.t_ms}"
            )
            disk_clock[key] = event.t_ms
        elif event.kind == "query_arrival":
            assert last_arrival is None or event.t_ms >= last_arrival, (
                f"{where}: arrival at {event.t_ms} after one at "
                f"{last_arrival}"
            )
            last_arrival = event.t_ms
            arrived[event.query] = event.t_ms
        elif event.kind == "query_completion":
            assert event.t_ms >= arrived[event.query], (
                f"{where}: completed at {event.t_ms} before its arrival "
                f"at {arrived[event.query]}"
            )
