"""Writes batch_inline.requests.ndjson: inline requests for the batch
byte-identity gate.

The named designs of batch_suite.requests.ndjson never reach the .dfg
reader, the renamed-hit remap or the printer's large-number path; these
lines do. Run from the repository root:

    python3 test/data/batch_inline.py > test/data/batch_inline.requests.ndjson

The expected replies are the batch output at --jobs 1 of the build the
file was made with:

    softsched batch --jobs 1 < test/data/batch_inline.requests.ndjson \
      > test/data/batch_inline.expected.ndjson
"""

import json
import random
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, "perfbench")
import graphs  # noqa: E402

rng = random.Random(25)
k60, k150, k300, k100 = (graphs.kernel(rng, n) for n in (60, 150, 300, 100))


def renamed(g):
    """The same graph under other vertex names, declared in the same order.

    Port names inside in(...)/out(...) are part of the operation, so
    they stay: the copy is the same structure, a remapped cache hit.
    """
    return graphs.Graph(["r_" + n for n in g.names], g.ops, g.delays, g.edges).text


# Comments, tabs, CRLF, blank lines and every numeral int_of_string takes.
TEXT = (
    "# a hand-written design\r\n"
    "\r\n"
    "vertex\tx in(x) 0   # an input\r\n"
    "vertex y\tin(y)\t-0\r\n"
    "vertex k const(0x1F)\r\n"
    "  vertex m mul +3\r\n"
    "vertex a add 0x1F\r\n"
    "vertex s sub 1_000\r\n"
    "vertex o out(o)\t0\r\n"
    "\t\r\n"
    "edge x m\r\n"
    "edge y m # operand 2\r\n"
    "edge m a\r\n"
    "edge k a\r\n"
    "edge a s\r\n"
    "edge x s\r\n"
    "edge s o"
)

# Names the reply must escape: a quote, a backslash, UTF-8.
ESCAPED = (
    'vertex q"1 in(q"1) 0\n'
    "vertex b\\2 in(b\\2) 0\n"
    "vertex é mul\n"
    "vertex ω out(ω)\n"
    'edge q"1 é\n'
    "edge b\\2 é\n"
    "edge é ω\n"
)

# A chain whose steps pass 10^15: the printer's large-number path.
BIG = "vertex a mul 4503599627370495\nvertex b mul 1\nvertex c add\nedge a b\nedge b c\n"

BAD = [
    "vertex a bogus 1\n",
    "vertex a add\nvertex a mul\n",
    "vertex a add\nedge a b\n",
    "vertex a add x1\n",
    "vertex a add -2\n",
    "vertex a add 1 2\n",
    "vertex a add\nvertex b add\nedge a b 3\n",
    "node a add\n",
    "vertex a add\nvertex b add\nedge a b\nedge b a\n",
]

requests = [
    {"id": "k60", "dfg": k60.text},
    {"id": "k150", "dfg": k150.text},
    {"id": "k300", "dfg": k300.text},
    {"id": "text", "dfg": TEXT},
    {"id": "k60-repeat", "dfg": k60.text},
    {"id": "k150-renamed", "dfg": renamed(k150)},
    {"id": "k100-no-schedule", "dfg": k100.text, "schedule": False},
    {"id": "k300-no-schedule", "dfg": k300.text, "schedule": False},
    {
        "id": "source",
        "source": "input x, y;\noutput z, w;\nz = x * y + 3 * x;\nw = z - y;\n",
    },
    {"id": 'esc "\\\té\u0001', "dfg": ESCAPED},
    {"id": "esc-raw", "dfg": ESCAPED, "raw": True},
    {"id": "big", "dfg": BIG},
    {"id": "big-3alu", "dfg": BIG, "resources": "3alu,1mul"},
]
requests += [{"id": "bad-%d" % i, "dfg": d} for i, d in enumerate(BAD)]

# One line carries its UTF-8 bytes raw rather than as \u escapes.
for r in requests:
    raw = r.pop("raw", False)
    sys.stdout.write(json.dumps(r, ensure_ascii=not raw) + "\n")
