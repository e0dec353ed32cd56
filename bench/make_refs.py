"""Record the reference outputs the benchmark checks against.

    python3 bench/make_refs.py

Run from the root of a checkout of the commit whose results become the
reference; it rewrites ``bench/refs.json``.  It records the outputs of the
fixed inputs only: invariants of the lens-space chains, the condensation
jobs (status, labels and S' of every solution), and the verify verdicts of
the fixed documents.  Seeded inputs are checked by self-consistency instead.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

from worker import HERE, ROOT, import_library


def main():
    import_library()
    import check
    import workloads
    from tracing import Api

    api = Api()
    hat = api.builtin("su2:4")
    chains = {}
    for n in workloads.CHAIN_LENGTHS:
        vals = workloads.surgery_chain_values(api, hat, workloads.chain(api, n))
        chains[str(n)] = {k: [v.real, v.imag] for k, v in vals.items()}

    condense = {}
    for name, fn_name, args in [*workloads.condense_jobs(api), workloads.heavy_double_job(api)]:
        s = workloads.condensed_summary(getattr(api, fn_name)(*args))
        s["solutions"] = [check.matrix_to_json(m) for m, _ in s["solutions"]]
        del s["source_dim"]
        condense[name] = s
        print(name, s["status"], flush=True)

    verify = {}
    docs, _ = workloads.verify_fixed_docs(api)
    for name, doc in docs:
        verify[name], _ = workloads.verify_doc(api, json.dumps(doc))

    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True).stdout.strip()
    refs = {"commit": commit, "surgery": {"chains": chains}, "condense": condense, "verify": verify}
    (HERE / "refs.json").write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    main()
