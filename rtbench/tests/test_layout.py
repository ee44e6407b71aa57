#!/usr/bin/env python3
"""Checks the benchmark's layout against its contract.

    python3 rtbench/tests/test_layout.py

- the yardstick includes nothing from the repository's src/ tree and pins
  its own optimisation level;
- every metric BENCHMARK.json declares has a valid name, used once, and a
  valid unit, and setup_s is among them;
- run.py builds the result object from the binary's values in
  BENCHMARK.json's order and units, and refuses a missing, undeclared or
  non-finite value.
"""

import importlib.util
import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_yardstick():
    for name in ("Yardstick.h", "Yardstick.cpp"):
        text = open(os.path.join(BENCH, "src", name)).read()
        for inc in re.findall(r'#\s*include\s*([<"][^>"]+[>"])', text):
            assert inc.startswith("<") or inc == '"Yardstick.h"', \
                "%s includes %s: the yardstick must not depend on src/" % (
                    name, inc)
    text = open(os.path.join(BENCH, "src", "Yardstick.cpp")).read()
    assert '#pragma GCC optimize("O2")' in text, \
        "the yardstick must pin its optimisation level in its source"


def check_metrics(spec):
    names = [m["name"] for layer in ("end_to_end", "per_layer")
             for m in spec[layer]]
    assert len(names) == len(set(names)), "a metric name is used twice"
    for layer in ("end_to_end", "per_layer"):
        for m in spec[layer]:
            assert NAME.match(m["name"]), "bad metric name %r" % m["name"]
            assert UNIT.match(m["unit"]), "bad unit %r" % m["unit"]
    assert not NAME.match("bad name") and not NAME.match("_leading")
    assert not UNIT.match("ns per op")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


def check_assemble(spec):
    loader = importlib.util.spec_from_file_location(
        "rtbench_run", os.path.join(BENCH, "run.py"))
    run = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(run)
    for trace, layer in ((0, "end_to_end"), (1, "per_layer")):
        declared = spec[layer]
        values = {m["name"]: float(i + 1) for i, m in enumerate(declared)}
        line = json.dumps({"correct": True, "attempted": 3, "failed": 0,
                           "values": dict(reversed(list(values.items())))})
        res = run.assemble(line, spec, trace)
        assert list(res) == ["correct", "attempted", "failed", "metrics"]
        assert list(res["metrics"]) == [m["name"] for m in declared]
        for m in declared:
            assert res["metrics"][m["name"]] == {
                "value": values[m["name"]], "unit": m["unit"]}
        first = declared[0]["name"]
        for broken in ({k: v for k, v in values.items() if k != first},
                       dict(values, undeclared=1.0),
                       dict(values, **{first: float("nan")})):
            line = json.dumps({"correct": True, "attempted": 3, "failed": 0,
                               "values": broken})
            try:
                run.assemble(line, spec, trace)
            except ValueError:
                continue
            raise AssertionError("assemble accepted %r" % broken)


def main():
    if len(sys.argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    check_yardstick()
    check_metrics(spec)
    check_assemble(spec)
    print("test_layout: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
