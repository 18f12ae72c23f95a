"""`ledger`: the two-clock benchmark over the protocol family (see README.md)."""
