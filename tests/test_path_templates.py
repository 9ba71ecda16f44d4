"""One rule for a path template variable: a property over drawn templates.

Each example is a path template with up to four distinct variables, whose
names are any text without braces or lone surrogates, `/` included, and
literal text over `a./-` between them, plus a non-empty value for each
variable. `runtime._fill_path` fills the template with each value
percent-encoded whole, as `invoke_tool` does.

The property holds when `ingest.PATH_VARIABLE` finds the drawn names, in
order; when `_fill_path` either refuses the values with SchemaViolation or
gives a path that the mock's pattern for the template
(`mock_upstream._compile_template`) matches; and, when no segment holds
two variables, when the pattern's groups decode to the drawn values.

CI's `totality` job runs it under the larger `totality` profile
(tests/conftest.py).
"""

from __future__ import annotations

from urllib.parse import quote, unquote

from hypothesis import given
from hypothesis import strategies as st

from automcp.errors import SchemaViolation
from automcp.ingest import PATH_VARIABLE
from automcp.mock_upstream import _compile_template
from automcp.runtime import _fill_path

TEXT = st.characters(blacklist_categories=("Cs",))
NAMES = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="{}"),
                min_size=1, max_size=6)


@st.composite
def filled_templates(draw):
    """(template, names, literals, values): `literals` has one more item
    than `names`, and the template alternates them, literals first."""
    names = draw(st.lists(NAMES, max_size=4, unique=True))
    literals = draw(st.lists(st.text("a./-", max_size=4), min_size=len(names) + 1,
                             max_size=len(names) + 1))
    values = draw(st.lists(st.text(TEXT, min_size=1, max_size=6), min_size=len(names),
                           max_size=len(names)))
    template = "/" + literals[0] + "".join(
        "{%s}%s" % pair for pair in zip(names, literals[1:]))
    return template, names, literals, values


@given(filled_templates())
def test_the_mock_routes_what_the_runtime_fills(drawn):
    template, names, literals, values = drawn
    assert PATH_VARIABLE.findall(template) == names
    pattern, route_names = _compile_template(template)
    assert list(route_names) == names
    try:
        path = _fill_path(template, {name: (quote(value, safe=""), name)
                                     for name, value in zip(names, values)})
    except SchemaViolation:
        return
    found = pattern.match(path)
    assert found is not None, (template, path)
    if all("/" in literal for literal in literals[1:-1]):  # one variable a segment
        assert list(map(unquote, found.groups())) == values
