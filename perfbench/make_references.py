"""Write data/type_a_reference.json, the type-A reference table.

    python3 perfbench/make_references.py

Each section is computed in its own fresh Python process, so no memo
left behind by one backend can reach another:

* ``a3`` and ``a3-sink``: every product 1_x * 1_z of nonzero classes
  with total dimension <= 5 (the operations typeA-cold draws from), as
  {class key: coefficient};
* ``reversed-a3-P13``: the nonzero [P13] cells of the reversed-arrow a3
  (data/a3_reversed.json, also named "a3"), as {"sub|quotient": value}.

Run it from the root of a checkout whose engine is trusted; the
committed table was made at the commit that introduced the benchmark.
"""

import json
import subprocess
import sys
from pathlib import Path

import operands
import references

HERE = Path(__file__).resolve().parent
SECTIONS = ("a3", "a3-sink", "reversed-a3-P13")


def compute(section):
    import worker
    hf = worker.import_hallforge()
    bounds = hf.counting.Bounds(max_dim=6, max_q=13)
    if section == "reversed-a3-P13":
        b = worker.load_backend(hf, "a3-reversed")
        eng = hf.hall.HallEngine(b, bounds)
        p13 = hf.quiver.parse_class(b, "[P13]")
        out = {}
        for x, z in operands.cells_of_p13():
            c = eng.euler_constant(hf.quiver.parse_class(b, x),
                                   hf.quiver.parse_class(b, z), p13)
            if c:
                out[f"{x}|{z}"] = str(c)
        return {"[P13]": out}
    b = worker.load_backend(hf, section)
    eng = hf.hall.HallEngine(b, bounds)
    classes = operands.type_a_classes(3, operands.TYPE_A_MAX_DIM)
    out = {}
    for x, xd, _ in classes:
        for z, zd, _ in classes:
            if sum(xd) + sum(zd) > operands.TYPE_A_MAX_DIM:
                continue
            prod = hf.alg.convolve(eng, hf.alg.class_char(b, hf.quiver.parse_class(b, x)),
                                   hf.alg.class_char(b, hf.quiver.parse_class(b, z)))
            vals = references.element_values(hf.alg.canonical_json(b, prod))
            out[f"{x}*{z}"] = {k: str(v) for k, v in sorted(vals.items())}
    return out


def main():
    if len(sys.argv) == 3 and sys.argv[1] == "--section":
        print(json.dumps(compute(sys.argv[2]), sort_keys=True))
        return 0
    table = {}
    for section in SECTIONS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--section", section],
                              capture_output=True, text=True, check=True)
        table[section] = json.loads(proc.stdout)
    references.TYPE_A_TABLE.write_text(
        json.dumps(table, sort_keys=True, indent=0) + "\n")
    print(f"wrote {references.TYPE_A_TABLE} "
          f"({', '.join(f'{s}: {len(table[s])}' for s in SECTIONS)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
