"""Write perfbench/reference.json from the current satgrowth sources.

    python3 perfbench/make_reference.py

It runs every workload untraced at the default seed and run length and
stores what the checks compare: the mc-alpha10 records, the oracle-n8 exact
(T*, B*) pairs, and the meanfield-alpha10 mass curves and upper-sat omega.
Regenerate only when a change is meant to alter these outputs, and say so
in its description.
"""

import json
import os
import re
import sys

import run

SECONDS = 20.0


def main():
    run.pin_threads()
    sys.path.insert(0, run.SRC)
    import checks
    import workloads

    empty = {name: {} for name in workloads.WORKLOADS}

    def results(cls):
        wl = cls(run.DEFAULT_SEED, SECONDS, run.NPROC, empty, None)
        out = workloads.Outcomes()
        res = wl.run(wl.make_inputs(), out)
        if out.failed:
            sys.exit("\n".join(out.messages()))
        return res

    mc = results(workloads.McAlpha10)
    orc = results(workloads.OracleN8)
    mf = results(workloads.MeanfieldAlpha10)["results"]
    ref = {
        "mc-alpha10": {"records": {
            "/".join(map(str, key)): checks.record_row(rec)
            for key, rec in sorted(mc["records"].items())}},
        "oracle-n8": {"instances": {
            "/".join(map(str, key)): [r["t_star"], str(r["b_star"])]
            for key, r in sorted(orc["results"].items())}},
        "meanfield-alpha10": {
            "mass_curves": {str(n): [st.total_mass for st in mf[("annealed", n)][2]]
                            for n in workloads.MeanfieldAlpha10.ANNEALED_N},
            "upper_sat_omega_bits": mf["upper_sat"].omega_bits},
    }
    # one list of numbers per line keeps the file short and its diffs legible
    text = re.sub(r"\[[^\[\]{}]*\]",
                  lambda m: json.dumps(json.loads(m.group(0))),
                  json.dumps(ref, indent=1))
    with open(checks.REFERENCE_PATH, "w") as fh:
        fh.write(text + "\n")
    print(f"wrote {os.path.relpath(checks.REFERENCE_PATH, run.ROOT)}")


if __name__ == "__main__":
    main()
