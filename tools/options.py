"""Print the settable options of the rotn package found on PYTHONPATH:
the ExperimentConfig fields, then each subcommand's command-line
arguments, and the counts of both.  tools/check.sh runs it on a
commit's src/ and on the checkout's, so a change's option counts are
read off, not counted by hand.
Usage: PYTHONPATH=SRC python3 tools/options.py
"""

import argparse
import inspect

from rotn.cli import _build_parser
from rotn.harness import ExperimentConfig


def main() -> None:
    # the constructor's parameters: the same names for a dataclass config
    names = list(inspect.signature(ExperimentConfig).parameters)
    print("ExperimentConfig fields (%d): %s" % (len(names), " ".join(names)))
    subcommands = next(a for a in _build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)).choices
    declared = set()  # a shared parent's argument is one action in every subcommand
    for kind, parser in subcommands.items():
        given = [a for a in parser._actions
                 if a.option_strings and not isinstance(a, argparse._HelpAction)]
        declared.update(map(id, given))
        print("rotn %s (%d): %s" % (kind, len(given),
                                    " ".join(a.option_strings[-1] for a in given)))
    print("CLI arguments: %d declared" % (len(declared),))


if __name__ == "__main__":
    main()
