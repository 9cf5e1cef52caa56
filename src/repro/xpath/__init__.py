"""XPath front-end: compile a practical XPath subset to query patterns.

Supported grammar (the fragment that maps onto tree-pattern matching,
which is what the paper's Sec. 2.1 assumes)::

    path      := ("/" | "//") step (("/" | "//") step)*
    step      := nametest predicate*
    nametest  := NAME | "*"
    predicate := "[" expr "]"
    expr      := relpath
               | relpath? comparison
               | "text()" comparison
               | "@" NAME comparison
    relpath   := step (("/" | "//") step)*
    comparison:= ("=" | "!=" | "<" | "<=" | ">" | ">=") literal

Examples::

    //manager[.//employee/name]//department/name
    //book[@year >= '2000']/title
    //manager//employee[name = 'Ada']

Every step becomes a pattern node; `/` edges are parent/child, `//`
edges ancestor/descendant.  The *result node* of the path (its last
step) becomes the pattern's ``order_by`` node, matching how Timber
pipelines pattern matches into later operators.
"""

from repro.xpath.lexer import Token, TokenKind, tokenize
from repro.xpath.ast import (LocationPath, Step, ValueComparison,
                             PathPredicate)
from repro.xpath.parser import compile_xpath, parse_xpath
from repro.xpath.render import pattern_to_xpath

__all__ = [
    "Token",
    "TokenKind",
    "tokenize",
    "LocationPath",
    "Step",
    "ValueComparison",
    "PathPredicate",
    "compile_xpath",
    "parse_xpath",
    "pattern_to_xpath",
]
