"""Unit tests for the standalone XML parser."""

import pytest

from repro.errors import XmlParseError
from repro.document.parser import parse_xml


class TestBasicParsing:
    def test_single_element(self):
        document = parse_xml("<a/>")
        assert len(document) == 1
        assert document.root.tag == "a"

    def test_nested_elements(self):
        document = parse_xml("<a><b><c/></b><d/></a>")
        assert [node.tag for node in document] == ["a", "b", "c", "d"]
        assert [node.level for node in document] == [0, 1, 2, 1]

    def test_text_content(self):
        document = parse_xml("<a>hello <b>world</b> again</a>")
        assert document.root.text == "hello  again"
        assert document.nodes[1].text == "world"

    def test_attributes_double_and_single_quotes(self):
        document = parse_xml("""<a x="1" y='two'/>""")
        assert document.root.attributes == {"x": "1", "y": "two"}

    def test_self_closing_with_attributes(self):
        document = parse_xml('<a><b k="v"/></a>')
        assert document.nodes[1].attributes == {"k": "v"}
        assert document.nodes[1].region.end == 1

    def test_xml_declaration_and_doctype_skipped(self):
        document = parse_xml(
            '<?xml version="1.0"?>\n<!DOCTYPE a>\n<a/>')
        assert document.root.tag == "a"

    def test_comments_skipped(self):
        document = parse_xml("<a><!-- ignore <b/> --><c/></a>")
        assert [node.tag for node in document] == ["a", "c"]

    def test_cdata_becomes_text(self):
        document = parse_xml("<a><![CDATA[x < y & z]]></a>")
        assert document.root.text == "x < y & z"

    def test_processing_instruction_skipped(self):
        document = parse_xml("<a><?php echo; ?><b/></a>")
        assert [node.tag for node in document] == ["a", "b"]

    def test_whitespace_in_tags(self):
        document = parse_xml("<a >< b/></a >".replace("< b", "<b"))
        assert len(document) == 2


class TestEntities:
    def test_predefined_entities(self):
        document = parse_xml("<a>&lt;&amp;&gt;&quot;&apos;</a>")
        assert document.root.text == "<&>\"'"

    def test_numeric_entities(self):
        document = parse_xml("<a>&#65;&#x42;</a>")
        assert document.root.text == "AB"

    def test_entities_in_attributes(self):
        document = parse_xml('<a k="&lt;x&gt;"/>')
        assert document.root.attributes["k"] == "<x>"

    def test_unknown_entity_rejected(self):
        with pytest.raises(XmlParseError) as caught:
            parse_xml("<a>&nope;</a>")
        assert (caught.value.line, caught.value.column) == (1, 4)
        # an external subset makes the reference legal XML; there is
        # still nothing to expand it to
        with pytest.raises(XmlParseError, match="&nope;"):
            parse_xml('<!DOCTYPE a SYSTEM "a.dtd"><a>&nope;</a>')

    @pytest.mark.parametrize("declaration", [
        '<!ENTITY x "y">',
        '<!ENTITY % p "y">',
        '<!ENTITY x SYSTEM "file:///etc/passwd">',
        '<!ENTITY a "&b;&b;"><!ENTITY b "&a;">',
    ])
    def test_entity_declarations_refused(self, declaration):
        with pytest.raises(XmlParseError, match="entity declarations") \
                as caught:
            parse_xml(f"<!DOCTYPE a [\n{declaration}]>\n<a>&x;</a>")
        assert caught.value.line == 2


class TestErrors:
    def test_mismatched_tags(self):
        with pytest.raises(XmlParseError):
            parse_xml("<a><b></a></b>")

    def test_unclosed_element(self):
        with pytest.raises(XmlParseError):
            parse_xml("<a><b>")

    @staticmethod
    def position_of_failure(text):
        with pytest.raises(XmlParseError) as caught:
            parse_xml(text)
        return caught.value.line, caught.value.column

    def test_unterminated_comment(self):
        assert self.position_of_failure("<a>\n<!-- oops</a>") == (2, 1)

    def test_unterminated_attribute(self):
        assert self.position_of_failure('<a>\n <b k="oops/>') == (2, 2)

    def test_duplicate_attribute(self):
        assert self.position_of_failure('<a k="1" k="2"/>') == (1, 10)

    def test_missing_equals(self):
        assert self.position_of_failure("<a k/>") == (1, 5)

    def test_error_carries_line_and_column(self):
        try:
            parse_xml("<a>\n  <b>&nope;</b>\n</a>")
        except XmlParseError as exc:
            assert exc.line == 2
            assert exc.column is not None
        else:  # pragma: no cover
            pytest.fail("expected XmlParseError")

    def test_empty_input(self):
        with pytest.raises(XmlParseError):
            parse_xml("")

    def test_text_only_input(self):
        with pytest.raises(XmlParseError):
            parse_xml("just text")


class TestRealisticDocument:
    def test_personnel_fixture(self, personnel_xml):
        document = parse_xml(personnel_xml)
        assert document.tag_count("manager") == 3
        assert document.tag_count("employee") == 5
        assert document.tag_count("department") == 2
        managers = document.nodes_with_tag("manager")
        assert managers[0].is_ancestor_of(managers[1])
        assert not managers[0].is_ancestor_of(managers[2])
