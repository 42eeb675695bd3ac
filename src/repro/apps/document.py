"""The document-sharing application of §2.

"Consider a document-sharing application in which multiple readers and
writers concurrently access a document that is updated in sequential
mode."  Writers append/replace paragraphs (updates, sequenced by GSN);
readers fetch the document (read-only), specifying how many versions of
staleness they tolerate.
"""

from __future__ import annotations

from repro.core.state import ReplicatedObject


class SharedDocument(ReplicatedObject):
    """An edit-versioned paragraph list."""

    READ_ONLY_METHODS = frozenset(
        {"read_document", "read_paragraph", "paragraph_count", "edit_count"}
    )

    def __init__(self, title: str = "untitled") -> None:
        self.title = title
        self.paragraphs: list[str] = []
        self.edits = 0

    # -- updates ---------------------------------------------------------
    def append_paragraph(self, text: str) -> int:
        """Append a paragraph; returns its index."""
        self.paragraphs.append(text)
        self.edits += 1
        return len(self.paragraphs) - 1

    def replace_paragraph(self, index: int, text: str) -> str:
        """Replace a paragraph; returns the previous text."""
        previous = self.paragraphs[index]
        self.paragraphs[index] = text
        self.edits += 1
        return previous

    # -- read-only -------------------------------------------------------
    def read_document(self) -> tuple[int, list[str]]:
        """The whole document with its edit version."""
        return (self.edits, list(self.paragraphs))

    def read_paragraph(self, index: int) -> str:
        return self.paragraphs[index]

    def paragraph_count(self) -> int:
        return len(self.paragraphs)

    def edit_count(self) -> int:
        return self.edits
