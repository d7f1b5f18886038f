"""Quickstart: recover an unknown on-die ECC function with BEER.

This is the smallest possible end-to-end use of the library: we pretend a
16-bit-dataword SEC Hamming code hidden inside a DRAM chip is unknown, build
its miscorrection profile from the {1,2}-CHARGED test patterns, and let the
BEER solver recover the parity-check matrix.

Run with::

    python examples/quickstart.py
"""

import numpy as np

from repro import (
    BeerSolver,
    charged_patterns,
    codes_equivalent,
    expected_miscorrection_profile,
    random_hamming_code,
)


def main() -> None:
    # 1. The "unknown" on-die ECC function.  In a real campaign this lives in
    #    the DRAM chip; here we sample a representative SEC Hamming code.
    secret_code = random_hamming_code(16, rng=np.random.default_rng(seed=2024))
    print("A DRAM vendor secretly chose a (21, 16) SEC Hamming code.")

    # 2. The miscorrection profile BEER would measure: for every {1,2}-CHARGED
    #    test pattern, which DISCHARGED data bits can exhibit miscorrections.
    patterns = list(charged_patterns(16, [1, 2]))
    profile = expected_miscorrection_profile(secret_code, patterns)
    print(
        f"Measured a miscorrection profile over {len(patterns)} test patterns "
        f"({profile.total_miscorrections} (pattern, bit) miscorrection entries)."
    )

    # 3. Solve for every ECC function consistent with the profile.
    solver = BeerSolver(num_data_bits=16)
    solution = solver.solve(profile)
    print(
        f"BEER explored {solution.nodes_visited} partial assignments in "
        f"{solution.runtime_seconds:.3f} s and found {solution.num_solutions} "
        "candidate function(s)."
    )

    # 4. The unique solution is the vendor's code (up to parity-bit labelling).
    recovered = solution.code
    assert codes_equivalent(recovered, secret_code)
    print("Recovered parity-check matrix H = [P | I]:")
    for row in recovered.parity_check_matrix:
        print(" ".join(str(bit) for bit in row))
    print("\nSuccess: the recovered function matches the vendor's secret code.")


if __name__ == "__main__":
    main()
