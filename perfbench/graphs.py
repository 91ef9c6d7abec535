"""Seeded dataflow-graph generation and an independent schedule checker.

Graphs are written in the `.dfg` text format the softsched CLI and
daemon accept (`vertex <name> <op> <delay>` / `edge <src> <dst>`). Every
vertex carries an explicit delay, so the checker below never relies on
the program's own delay model.
"""

# Op -> (delay, functional-unit class), as the suite designs use them.
# Inputs and outputs are free (no unit, zero delay).
OPS = {
    "add": (1, "alu"),
    "sub": (1, "alu"),
    "lt": (1, "alu"),
    "mul": (2, "mul"),
}
# Operation mix and block shapes are taken from the paper's Figure 3
# suite (Hls_bench: HAL AR EF FIR DCT IIR MM3 CONV), counted from the
# `schedule` arrays the daemon returns for each design by name. Over the
# 212 operations: 99 mul, 94 add, 18 sub, 1 lt; no memory operation.
MIX = (["mul", "add", "sub", "lt"], [99, 94, 18, 1])
# (operations, leaves) per design, leaves = inputs + constants.
SHAPES = [(11, 6), (28, 20), (34, 17), (16, 17), (32, 16), (18, 15), (45, 18), (28, 11)]


class Graph:
    """A generated DAG: vertex names, ops, delays and edges, plus its text."""

    def __init__(self, names, ops, delays, edges):
        self.names = names
        self.ops = ops
        self.delays = delays
        self.edges = edges
        lines = [
            "vertex %s %s %d" % (n, o, d) for n, o, d in zip(names, ops, delays)
        ]
        lines += ["edge %s %s" % (names[u], names[v]) for u, v in edges]
        self.text = "\n".join(lines) + "\n"

    def critical_path(self):
        """Longest delay-weighted path: a lower bound on any schedule's length."""
        finish = [0] * len(self.names)
        preds = [[] for _ in self.names]
        for u, v in self.edges:
            preds[v].append(u)
        for v in range(len(self.names)):  # vertices are in topological order
            start = max((finish[u] for u in preds[v]), default=0)
            finish[v] = start + self.delays[v]
        return max(finish, default=0)


def kernel(rng, n_ops=None):
    """A DAG of `n_ops` binary operations: a chain of suite-shaped blocks.

    Each block takes the (operations, leaves) shape of a randomly drawn
    suite design, the last one cut to size; without `n_ops`, the graph
    is one whole block. A block's leaves are the previous block's unread
    results, topped up with fresh primary inputs, and each of its
    operations reads two distinct values among the `leaves` most recent
    ones of the block, so the leaf count sets the parallelism as it does
    in the suite. Results no operation reads become outputs.
    """
    names, ops, delays, edges = [], [], [], []
    read = set()
    results = []
    done = 0
    shape = rng.choice(SHAPES)
    if n_ops is None:
        n_ops = shape[0]
    while done < n_ops:
        k, leaves = shape
        shape = rng.choice(SHAPES)
        k = min(k, n_ops - done)
        pool = [v for v in results if v not in read][:leaves]
        while len(pool) < leaves:
            pool.append(len(names))
            names.append("x%d" % len(names))
            ops.append("in(%s)" % names[-1])
            delays.append(0)
        results = []
        for _ in range(k):
            v = len(names)
            a, b = rng.sample(pool[-leaves:], 2)
            op = rng.choices(*MIX)[0]
            names.append("t%d" % v)
            ops.append(op)
            delays.append(OPS[op][0])
            edges += [(a, v), (b, v)]
            read.update((a, b))
            pool.append(v)
            results.append(v)
        done += k
    for v in range(len(names)):
        if ops[v] in OPS and v not in read:
            o = len(names)
            names.append("y%d" % v)
            ops.append("out(y%d)" % v)
            delays.append(0)
            edges.append((v, o))
    return Graph(names, ops, delays, edges)


def check_schedule(graph, slots, resources):
    """Validate a daemon reply's `schedule` array against `graph`.

    Checks that every vertex appears once with its op, that each edge
    waits for its producer's delay, that no functional unit runs two
    operations at once or serves two classes, and that the number of
    units of each class stays within `resources` (class -> count).
    Returns (ok, message, length) where length is the schedule's last
    finishing step.
    """
    index = {n: i for i, n in enumerate(graph.names)}
    if len(slots) != len(graph.names):
        return False, "%d slots for %d vertices" % (len(slots), len(graph.names)), 0
    step = [None] * len(graph.names)
    busy = {}  # unit -> list of (start, end, class)
    for s in slots:
        v = index.get(s.get("v"))
        if v is None or step[v] is not None:
            return False, "unknown or repeated vertex %r" % s.get("v"), 0
        if s.get("op") != graph.ops[v]:
            return False, "vertex %s has op %r" % (s.get("v"), s.get("op")), 0
        step[v] = s["step"]
        cls = OPS.get(graph.ops[v], (0, None))[1]
        unit = s.get("unit")
        if (unit is None) != (cls is None):
            return False, "vertex %s unit %r for class %r" % (s["v"], unit, cls), 0
        if unit is not None:
            busy.setdefault(unit, []).append((step[v], step[v] + graph.delays[v], cls))
    for u, v in graph.edges:
        if step[v] < step[u] + graph.delays[u]:
            return False, "edge %s->%s violated" % (graph.names[u], graph.names[v]), 0
    units_of = {}
    for unit, spans in busy.items():
        classes = {c for _, _, c in spans}
        if len(classes) != 1:
            return False, "unit %d serves %s" % (unit, sorted(classes)), 0
        units_of.setdefault(classes.pop(), set()).add(unit)
        spans.sort()
        for (_, e1, _), (s2, _, _) in zip(spans, spans[1:]):
            if s2 < e1:
                return False, "unit %d double-booked at step %d" % (unit, s2), 0
    for cls, units in units_of.items():
        if len(units) > resources.get(cls, 0):
            return False, "%d %s units used" % (len(units), cls), 0
    length = max(st + d for st, d in zip(step, graph.delays))
    return True, "", length
