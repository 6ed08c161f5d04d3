"""Signature distribution: immunize users who never saw the deadlock.

Section 8 of the paper: a vendor (or another user) who has already
encountered a deadlock can ship its signature; installing the signature
file immunizes other deployments proactively — the program can even be
"patched" at runtime by inserting the signature and reloading the history,
without a restart.

This example plays both roles with the JDBC-style connection pool bug
(#2147, getWarnings vs close), whose real code the simulator runs over
every interleaving:

1. the "vendor" explores the bug in its test lab, learns its signature and
   exports the signature file,
2. the "customer" imports that file into a fresh deployment, and no
   interleaving deadlocks there, the very first one included.

Run it with::

    python examples/signature_distribution.py
"""

from __future__ import annotations

import os
import tempfile

from repro import Dimmunix, DimmunixConfig
from repro.sim import DimmunixBackend, Explorer, ImmunityChecker
from repro.workloads.exploits import exploit_by_name

EXPLOIT = exploit_by_name("jdbc-2147")


def vendor_builds_signature_file(path: str) -> None:
    print("Vendor lab: exploring the bug to capture its signature")
    report = ImmunityChecker(EXPLOIT.scenario, name=EXPLOIT.name).check()
    vulnerable = report.vulnerable
    exported = Dimmunix(DimmunixConfig(), history=report.history).export_signatures(path)
    print(f"  deadlocks in {vulnerable.deadlock_count} of {vulnerable.runs} interleavings"
          f" -> {exported} signature(s) exported to {os.path.basename(path)}")


def customer_runs_with_imported_signatures(path: str) -> None:
    print("\nCustomer site: fresh deployment, signature file installed")
    customer = DimmunixBackend()
    imported = customer.dimmunix.import_signatures(path)
    print(f"  imported signatures: {imported}")
    result = Explorer(lambda: EXPLOIT.scenario(customer.fork()), name=EXPLOIT.name).explore()
    print(f"  deadlocks in {result.deadlock_count} of {result.runs} interleavings"
          f" (expected 0; every interleaving explored: {result.exhausted})")
    assert result.exhausted and result.deadlock_count == 0


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        signature_file = os.path.join(workdir, "jdbc-2147.signatures.json")
        vendor_builds_signature_file(signature_file)
        customer_runs_with_imported_signatures(signature_file)
        print("\nThe customer never experienced the deadlock: the imported "
              "signature made the first occurrence avoidable.")


if __name__ == "__main__":
    main()
