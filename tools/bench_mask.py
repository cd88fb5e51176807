"""Print the deterministic part of a `bench/main.exe` stdout, so two runs
(or two trees) can be compared with diff:

    python3 tools/bench_mask.py OUT_A > a; python3 tools/bench_mask.py OUT_B > b; diff a b

Table columns under a wall-clock header are dropped, P4's rows (one per
Bechamel test, in hash order) are sorted, whitespace runs are collapsed,
`wrote PATH` lines are dropped, and wall-clock figures in the free-text
lines that carry them are replaced by W.  Pass stdout only: the
progress lines on stderr carry wall times."""
import re, sys
WALL = {"ns/run", "cpu ms/run", "ref mean us", "ref p95 us", "inc mean us", "inc p95 us",
        "speedup", "wall s (min)", "wall s (median)", "overhead", "durable rec/s", "records/s", "vs each",
        "mean us", "p95 us", "wall s", "procs/s", "ops/s", "recover s", "admissions/s"}
lines = open(sys.argv[1]).read().split("\n")
out, i, section = [], 0, ""
while i < len(lines):
    l = lines[i]
    if i + 1 < len(lines) and re.fullmatch(r"(-+  )+", lines[i + 1]):
        heads = re.split(r"  +", l.strip())
        keep = [j for j, h in enumerate(heads) if h not in WALL]
        out.append(" | ".join(heads[j] for j in keep))
        i += 2
        rows = []
        while i < len(lines) and lines[i].strip() and ": " not in lines[i]:
            cells = re.split(r"  +", lines[i].strip())
            rows.append(" | ".join(cells[j] if j < len(cells) else "?" for j in keep))
            i += 1
        out.extend(sorted(rows) if section.startswith("P4") else rows)
        continue
    if re.match(r"^(E|P\d+) —", l):
        section = l
    if l.startswith("wrote ") or l.startswith("JSON written"):
        i += 1
        continue
    if re.search(r"e2e speedup|Tx read-set|live incremental run", l):
        l = re.sub(r"\d+\.\d+x?|\d{4,}", "W", l)
    out.append(re.sub(r"\s+", " ", l).strip())
    i += 1
print("\n".join(out))
