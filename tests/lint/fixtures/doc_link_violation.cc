// Seeded violation: comments that point at Markdown documents nobody wrote. A pointer to a
// missing document sends the reader nowhere, so doc-link must fire on each of the two.
// See DESIGN.md, substitution 2.  <- doc-link must fire here.
/* Numbers as in results/EXPERIMENTS.md. */  // <- and here, in a block comment.
// Near misses that must stay quiet: src/README.md exists from the repo root, a glob such
// as *.md names no file, and https://example.org/NOTES.md is a URL.
namespace dpack {

const char* kNotAComment = "MISSING.md";  // A string literal is not a comment.

}  // namespace dpack
