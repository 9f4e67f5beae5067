"""Record the golden outputs the benchmark's oracle checks against.

    PYTHONPATH=src python3 perfbench/make_golden.py > perfbench/golden.json

Records the sha256 of every verify-grid cell's Report.to_json_str(), and
the sha256 of to_json_obj() with the term count of every deep-tower X_k and
w_k, for N=3 (the self-test's tiny size), 4 and 5.  Run it only at a commit
whose outputs are known good: a later change must reproduce these bytes.
"""

import json

import todasym
from todasym.verify import ALL_SUITES

from workloads import canonical_digest, count_terms, sha256_text


def main() -> None:
    grid = {}
    for n in range(2, 9):
        for suite in ALL_SUITES:
            config = todasym.VerifyConfig(ns=(n,), n_max=4, suites=(suite,))
            grid[f"N={n}/{suite}"] = sha256_text(todasym.run_verify(config).to_json_str())
    tower = {}
    for n in (3, 4, 5):
        objects = [("X", k, todasym.master_field(k, n)) for k in range(3, 9)]
        objects += [("w", k, todasym.poisson_tensor(k, n)) for k in range(2, 7)]
        for family, k, value in objects:
            obj = value.to_json_obj()
            tower[f"{family}_{k}/N={n}"] = {"sha256": canonical_digest(obj), "terms": count_terms(obj)}
    print(json.dumps({"verify-grid": grid, "deep-tower": tower}, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
