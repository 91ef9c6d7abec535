"""The softsched daemon as the benchmark sees it: start/stop, one TCP
connection for timed requests and its metrics snapshot, and child
process reaping with rusage.
"""

import json
import os
import re
import select
import signal
import socket
import subprocess
import time

LISTENING = re.compile(r"listening on .*:(\d+) \(")


class Daemon:
    """A `softsched serve --tcp 127.0.0.1:0 --jobs N` process."""

    def __init__(self, exe, jobs, cwd):
        self.proc = subprocess.Popen(
            [exe, "serve", "--tcp", "127.0.0.1:0", "--jobs", str(jobs)],
            cwd=cwd,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        self.conn = None
        self.peak_rss_mb = None
        line = self.proc.stderr.readline().decode(errors="replace")
        m = LISTENING.search(line)
        if not m:
            self.stop()
            raise RuntimeError("daemon did not start: %r" % line)
        self.conn = socket.create_connection(("127.0.0.1", int(m.group(1))), timeout=60)
        self.conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.conn_in = self.conn.makefile("rb")

    def _reply(self):
        line = self.conn_in.readline()
        if not line:
            raise RuntimeError("daemon closed the connection")
        return line.rstrip(b"\n")

    def ask(self, line):
        """Send one request line and wait for its reply; return the reply
        and the seconds from sending to the reply's arrival."""
        t0 = time.perf_counter()
        self.conn.sendall(line)
        reply = self._reply()
        return reply, time.perf_counter() - t0

    def pipeline(self, lines, depth=4):
        """Send `lines` with up to `depth` in flight (within the pool's
        queue bound at any --jobs); return the replies in order."""
        replies = []
        for i in range(0, len(lines), depth):
            burst = lines[i:i + depth]
            self.conn.sendall(b"".join(burst))
            replies += [self._reply() for _ in burst]
        return replies

    def stats(self):
        """The daemon's metrics snapshot (`{"admin":"stats"}`)."""
        return json.loads(self.pipeline([b'{"admin":"stats"}\n'])[0])["stats"]

    def stop(self):
        """SIGTERM (the daemon drains in-flight work), then reap it.

        The daemon's own peak resident set is kept from its rusage.
        """
        if self.proc.returncode is not None:
            return
        if self.conn is not None:
            self.conn_in.close()
            self.conn.close()
        self.proc.send_signal(signal.SIGTERM)
        usage = reap(self.proc, 20.0)
        self.proc.stderr.close()
        self.peak_rss_mb = usage.ru_maxrss / 1024.0


def reap(proc, timeout):
    """Wait for `proc` (killing it after `timeout` seconds) and return its
    rusage; `proc.returncode` is set as `Popen.wait` would.

    A pidfd wakes the wait the moment the child exits, where polling
    would add its interval to every timed process."""
    fd = os.pidfd_open(proc.pid)
    try:
        if not select.select([fd], [], [], timeout)[0]:
            proc.kill()
    finally:
        os.close(fd)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def window_phases(before, after):
    """Per-phase mean latency (ms) of the requests between two snapshots.

    The daemon's histograms are cumulative; count and mean difference
    exactly, percentiles do not, so the window is reported as means.
    """
    out = {}
    for phase, h1 in after["latency_ms"].items():
        h0 = before["latency_ms"].get(phase, {"count": 0, "mean": 0.0})
        n = h1["count"] - h0["count"]
        out[phase] = max(0.0, (h1["mean"] * h1["count"] - h0["mean"] * h0["count"]) / n) if n else 0.0
    return out


def window_cache(before, after):
    """Cache hits and misses between two snapshots."""
    c0, c1 = before.get("cache", {}), after.get("cache", {})
    return {k: c1.get(k, 0) - c0.get(k, 0) for k in ("hits", "misses")}
