"""Repo-wide pytest options (a root conftest so the option exists
whichever directory a run names)."""


def pytest_addoption(parser):
    parser.addoption(
        "--write-results", action="store_true", default=False,
        help="let the benchmarks rewrite benchmarks/results/*.txt "
             "(default: print the figure only, leaving the tree clean)")
