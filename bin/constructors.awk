# Print the variant constructors that an OCaml interface declares, one per
# line: every capitalised name that follows `=` or `|` in a `type` or
# `and` definition and does not start a module path (`M.t`). Run it on
# code_only.awk output, so comments do not count:
#
#   awk -f bin/code_only.awk m.mli | awk -f bin/constructors.awk

/^(type|and) / { intype = 1 }
/^(val|module|exception|external|open|include) / { intype = 0 }
intype {
  rest = $0
  while (match(rest, /[=|] *[A-Z][A-Za-z0-9_']*/)) {
    c = substr(rest, RSTART, RLENGTH)
    rest = substr(rest, RSTART + RLENGTH)
    sub(/^[=|] */, "", c)
    if (substr(rest, 1, 1) != ".") print c
  }
}
