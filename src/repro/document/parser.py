"""XML text -> region-encoded document, through the standard library.

:mod:`xml.parsers.expat` does the scanning and decides well-formedness
(elements, attributes, character data and CDATA, comments, processing
instructions, an XML declaration / DOCTYPE, predefined and numeric
character references); its three content events are exactly the three
calls a :class:`repro.document.DocumentBuilder` takes, so the output
is a fully region-encoded :class:`XmlDocument`.  Namespaces are not
processed (a prefixed name is just a tag).

What this module adds is the boundary: every failure — expat's, the
builder's, or a refusal below — is a :class:`repro.errors.XmlParseError`
carrying ``line`` / ``column``, and a document that *declares* an
entity is refused outright.  The benchmark data sets declare none, and
accepting declarations would accept entity-expansion input; with none
declared, a reference to anything but the five predefined entities has
nothing to expand to and is refused as well.
"""

from __future__ import annotations

from xml.parsers import expat

from repro.errors import DocumentError, XmlParseError
from repro.document.builder import DocumentBuilder
from repro.document.document import XmlDocument


def parse_xml(text: str, name: str = "doc") -> XmlDocument:
    """Parse an XML string into a region-encoded :class:`XmlDocument`."""
    builder = DocumentBuilder(name=name)
    parser = expat.ParserCreate()
    parser.buffer_text = True
    parser.StartElementHandler = builder.start_element
    parser.EndElementHandler = builder.end_element
    parser.CharacterDataHandler = builder.text

    def here(message: str) -> XmlParseError:
        return XmlParseError(message, line=parser.CurrentLineNumber,
                             column=parser.CurrentColumnNumber + 1)

    def refuse_declaration(entity_name: str, *_declaration: object) -> None:
        raise here(f"entity declarations are not accepted "
                   f"(<!ENTITY {entity_name} ...>)")

    def refuse_reference(entity_name: str, _is_parameter: int) -> None:
        raise here(f"unknown entity &{entity_name};")

    parser.EntityDeclHandler = refuse_declaration
    parser.SkippedEntityHandler = refuse_reference
    try:
        parser.Parse(text, True)
        return builder.finish()
    except expat.ExpatError as exc:
        raise XmlParseError(expat.ErrorString(exc.code), line=exc.lineno,
                            column=exc.offset + 1) from exc
    except XmlParseError:
        raise
    except DocumentError as exc:
        raise here(str(exc)) from exc
