// Stdin-driven Z3 runner backed by the z3-solver WebAssembly build.
// Evaluates each complete top-level SMT-LIB2 command as soon as it arrives,
// all on one context, and writes its output at once, so it serves a qlayout
// solver session (push/pop, one check at a time) as well as a piped script.
// Accepts and ignores `-in` style flags so it can stand in for `z3 -in`.
import { realpathSync } from "node:fs";
import { pathToFileURL } from "node:url";

// Cuts SMT-LIB2 text into complete top-level commands.  Feed it text as it
// arrives; an unfinished command, string literal, quoted symbol or comment
// is kept until the rest comes.
export class CommandSplitter {
  constructor() {
    this.pending = "";
    this.scanned = 0;   // characters of `pending` already scanned
    this.depth = 0;
    this.mode = null;   // null, '"' (string), "|" (quoted symbol) or ";" (comment)
  }

  feed(text) {
    this.pending += text;
    const commands = [];
    let start = 0;
    for (let i = this.scanned; i < this.pending.length; i++) {
      const c = this.pending[i];
      if (this.mode !== null) {
        // `""` inside a string closes it and opens it again: the escape
        if (c === (this.mode === ";" ? "\n" : this.mode)) this.mode = null;
      } else if (c === '"' || c === "|" || c === ";") {
        this.mode = c;
      } else if (c === "(") {
        this.depth++;
      } else if (c === ")" && this.depth > 0 && --this.depth === 0) {
        commands.push(this.pending.slice(start, i + 1));
        start = i + 1;
      }
    }
    this.pending = this.pending.slice(start);
    this.scanned = this.pending.length;
    return commands;
  }
}

// Evaluates each command of `chunks` (an async iterable of text) with
// `evaluate` as soon as it is complete, in order, and hands every non-empty
// output to `write`.  Returns 1 if any command failed, else 0.
export async function serve(chunks, evaluate, write) {
  const splitter = new CommandSplitter();
  let status = 0;
  for await (const chunk of chunks) {
    for (const command of splitter.feed(String(chunk))) {
      try {
        const out = await evaluate(command);
        if (out) write(out.endsWith("\n") ? out : out + "\n");
      } catch (err) {
        write(`(error "${String(err).replace(/"/g, "'")}")\n`);
        status = 1;
      }
    }
  }
  return status;
}

async function main() {
  const { init } = await import("z3-solver");
  const { Z3, em } = await init();
  const cfg = Z3.mk_config();
  const ctx = Z3.mk_context(cfg);
  Z3.del_config(cfg);
  process.stdin.setEncoding("utf8");
  try {
    process.exitCode = await serve(
      process.stdin,
      (command) => Z3.eval_smtlib2_string(ctx, command),
      (text) => process.stdout.write(text),
    );
  } finally {
    Z3.del_context(ctx);
    em.PThread.terminateAllThreads();
  }
  process.exit();
}

const entry = process.argv[1] && pathToFileURL(realpathSync(process.argv[1])).href;
if (import.meta.url === entry) {
  await main();
}
