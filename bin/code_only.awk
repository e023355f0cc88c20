# Print an OCaml source file with its comments (nested ones too) and its
# string literals ("...", {|...|}, {id|...|id}, and char literals) blanked
# to spaces, line for line, so that a grep for a name sees only code.
#
#   awk -f bin/code_only.awk FILE.ml
#
# As OCaml's lexer does, it reads strings inside comments as strings, so
# a "*)" in one does not close the comment.
BEGIN { q = "\047" }

function blank(s) { gsub(/./, " ", s); return s }

{
  line = $0
  n = length(line)
  out = ""
  i = 1
  while (i <= n) {
    c = substr(line, i, 1)
    if (str) {
      if (c == "\\") { out = out "  "; i += 2; continue }
      if (c == "\"") str = 0
      out = out " "; i++; continue
    }
    if (quoted) {
      if (substr(line, i, length(qend)) == qend) {
        out = out blank(qend); i += length(qend); quoted = 0; continue
      }
      out = out " "; i++; continue
    }
    two = substr(line, i, 2)
    if (two == "(*") { depth++; out = out "  "; i += 2; continue }
    if (depth && two == "*)") { depth--; out = out "  "; i += 2; continue }
    if (c == "\"") { str = 1; out = out " "; i++; continue }
    if (c == "{" && match(substr(line, i), /^\{[a-z_]*\|/)) {
      qend = "|" substr(line, i + 1, RLENGTH - 2) "}"
      quoted = 1; out = out blank(substr(line, i, RLENGTH)); i += RLENGTH
      continue
    }
    if (c == q && substr(line, i + 1, 1) == "\\") {
      j = index(substr(line, i + 3), q)
      if (j > 0) { out = out blank(substr(line, i, j + 3)); i += j + 3; continue }
    }
    if (c == q && substr(line, i + 2, 1) == q) {
      out = out "   "; i += 3; continue
    }
    out = out (depth ? " " : c); i++
  }
  print out
}
