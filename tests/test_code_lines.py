import textwrap

from code_lines import code_lines

# Every line the counter skips says so; the other six are code lines.
SNIPPET = textwrap.dedent('''\
    """Module docstring: skipped,
    all of it."""
    import os  # code

    # a comment alone: skipped
    TEXT = """a string that is no docstring
    counts, line by line"""


    class A:
        """Class docstring: skipped."""

        def f(self):
            """Function docstring,
            skipped."""
            return "#"  # code
    ''')


def test_the_counter_skips_blank_lines_comments_and_docstrings_only():
    assert code_lines(SNIPPET) == 6
