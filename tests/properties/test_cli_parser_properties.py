"""Property: the one-subcommand parser is the full parser, for its argv.

``repro.cli.main`` builds only the subparser that ``argv[0]`` names
(every launcher child would otherwise build all of them).  That is a
saving only if nothing can tell the two apart.  For any argv that
starts with a subcommand, built from that subcommand's own flags, good
and bad values, and stray tokens (global flags, ``-h``, other
subcommands' names, unknown and abbreviated options),
``build_parser(cmd)`` and ``build_parser()`` must either parse it to
equal namespaces or exit with the same code, printing the same stdout
(help) and the same stderr (usage and error).
"""

import argparse
import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import SUBCOMMANDS, build_parser

VALUES = (
    "0", "1", "-1", "2.5", "x", "", "quick", "full", "never", "batch",
    "always", "127.0.0.1:1", "a:b", "DIR",
)
STRAYS = ("-v", "--verbose", "-h", "--bogus", "--", "--po", "-x", *SUBCOMMANDS)


def own_flags(command):
    """The option strings of ``command``'s subparser."""
    parser = build_parser(command)
    (sub,) = (
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return sorted(
        flag for action in sub.choices[command]._actions
        for flag in action.option_strings
    )


TOKENS = {command: own_flags(command) for command in SUBCOMMANDS}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(list(SUBCOMMANDS)))
    pool = st.sampled_from([*TOKENS[command], *VALUES, *STRAYS])
    return [command, *draw(st.lists(pool, max_size=8))]


def outcome(parser, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = ("parsed", vars(parser.parse_args(argv)))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(argv=argvs())
def test_one_subcommand_parses_as_all_of_them(argv):
    assert outcome(build_parser(argv[0]), argv) == outcome(build_parser(), argv)


def test_every_subcommand_has_flags_to_draw():
    """``own_flags`` reads argparse's internals: if they moved, the draws
    above would hold no flag and the property would test little."""
    assert all("-h" in TOKENS[command] for command in SUBCOMMANDS)
    assert {"--port", "--worker-id", "--shards"} <= set(TOKENS["serve-shard"])
