"""The command loop of ``tools/z3-stdin.mjs``, run under node with a stub
evaluator in place of the z3 WebAssembly build (which needs npm packages)."""

import json
import shutil
import subprocess
from pathlib import Path

import pytest

SHIM = Path(__file__).resolve().parent.parent / "tools" / "z3-stdin.mjs"

# Feeds CHUNKS one at a time and logs, in order, each chunk fed, each command
# the stub evaluates and each output written; prints the log and the status.
_NODE_SCRIPT = """
import { serve } from %(shim)s;
const chunks = %(chunks)s;
const log = [];
async function* feed() {
  for (const [i, chunk] of chunks.entries()) {
    log.push(["feed", i]);
    yield chunk;
  }
}
function evaluate(command) {
  const text = command.replace(/^(\\s|;[^\\n]*\\n)*/, "");
  log.push(["eval", text]);
  if (text === "(boom)") throw new Error("bad \\"command\\"");
  return Promise.resolve(text === "(check-sat)" ? "sat" : text.startsWith("(get-value") ? "((x #b10))" : "");
}
const status = await serve(feed(), evaluate, (out) => log.push(["out", out]));
console.log(JSON.stringify({ status, log }));
"""


def _run(chunks: list[str]) -> dict:
    node = shutil.which("node")
    if node is None:
        pytest.skip("node is not on PATH")
    script = _NODE_SCRIPT % {"shim": json.dumps(SHIM.as_uri()), "chunks": json.dumps(chunks)}
    proc = subprocess.run(
        [node, "--input-type=module", "-e", script],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_each_command_is_answered_before_the_next_chunk_arrives():
    result = _run([
        "(set-logic QF_BV)\n(push 1)\n(declare-const x (_ BitVec 2))\n(assert (= x #b1",
        "0))\n(check-sat)\n",
        '(get-value (x))\n(pop 1)\n(echo "a)b""c(")\n; a comment (\n(check-sat)\n',
    ])
    assert result["status"] == 0
    assert result["log"] == [
        ["feed", 0],
        ["eval", "(set-logic QF_BV)"],
        ["eval", "(push 1)"],
        ["eval", "(declare-const x (_ BitVec 2))"],
        ["feed", 1],
        ["eval", "(assert (= x #b10))"],
        ["eval", "(check-sat)"],
        ["out", "sat\n"],
        ["feed", 2],
        ["eval", "(get-value (x))"],
        ["out", "((x #b10))\n"],
        ["eval", "(pop 1)"],
        ["eval", '(echo "a)b""c(")'],
        ["eval", "(check-sat)"],
        ["out", "sat\n"],
    ]


def test_a_failing_command_prints_an_error_and_the_loop_goes_on():
    result = _run(["(boom)\n(check-sat)\n"])
    assert result["status"] == 1
    assert result["log"] == [
        ["feed", 0],
        ["eval", "(boom)"],
        ["out", "(error \"Error: bad 'command'\")\n"],
        ["eval", "(check-sat)"],
        ["out", "sat\n"],
    ]
