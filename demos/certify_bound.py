"""Certify a worst-case factor bound and replay the certificate.

Runs interval branch-and-bound over the two-level model's nonlinear
variables (b and the level-2 size fraction), proving that no parameter
setting can force every tabulated algorithm above the target ratio. The
leaf boxes are written as a certificate that an independent pass re-checks.
"""

import os
import tempfile
import time

from bipoint import nlp


def main():
    target = 1.35
    model = nlp.model_for_table("alg2", [0.6586])
    with tempfile.TemporaryDirectory() as tmp:
        cert_path = os.path.join(tmp, "alg2-135.ndjson")
        t0 = time.time()
        cert = nlp.branch_and_bound(model, target=target, budget=200000,
                                    certificate=cert_path)
        dt = time.time() - t0
        print(f"target {target}: {cert.status} after {cert.boxes_processed} "
              f"boxes ({cert.n_leaves} certified leaves) in {dt:.1f}s")

        ok = nlp.replay_certificate(model, cert_path, target=target)
        print(f"independent replay of the certificate: "
              f"{'ok' if ok else 'FAILED'}")

    # the same machinery reports an honest failure for an impossible target
    low = nlp.branch_and_bound(model, target=1.05, budget=3000)
    print(f"\ntarget 1.05: {low.status}, worst box value "
          f"{low.worst_value:.4f} at {low.worst_box}")


if __name__ == "__main__":
    main()
