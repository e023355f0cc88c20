# Print, one per line, every name that OCaml source files take from
# module M:
# - the last component of a path through M: `M.v`, `Lib.M.v`, or `X.v`
#   after an alias `module X = M` (or `= Lib.M`) earlier in the file;
# - every bare lowercase name after the file opens M: `open M`,
#   `open! M`, `include M`, `let open M in` or `M.(`.
# Run it on code_only.awk output, so comments and strings do not count:
#
#   awk -v m=Membuf -f bin/module_refs.awk FILE.ml...

function last(path,   parts, n) {
  n = split(path, parts, ".")
  return parts[n]
}

FNR == 1 { split("", alias); alias[m] = 1; opened = 0 }

{
  line = $0
  if (match(line, /module +[A-Z][A-Za-z0-9_']* *= *[A-Z][A-Za-z0-9_'.]*/)) {
    decl = substr(line, RSTART, RLENGTH)
    after = substr(line, RSTART + RLENGTH, 1)
    x = decl; sub(/^module +/, "", x); sub(/ *=.*/, "", x)
    p = decl; sub(/^[^=]*= */, "", p)
    if (last(p) in alias && after != "(") alias[x] = 1
  }
  rest = line
  while (match(rest, /(open!?|include) +[A-Z][A-Za-z0-9_'.]*/)) {
    p = substr(rest, RSTART, RLENGTH); sub(/^[a-z!]+ +/, "", p)
    if (last(p) in alias) opened = 1
    rest = substr(rest, RSTART + RLENGTH)
  }
  rest = line
  while (match(rest, /[A-Za-z_][A-Za-z0-9_']*(\.[A-Za-z_][A-Za-z0-9_']*)*/)) {
    p = substr(rest, RSTART, RLENGTH)
    before = RSTART > 1 ? substr(rest, RSTART - 1, 1) : ""
    next2 = substr(rest, RSTART + RLENGTH, 2)
    rest = substr(rest, RSTART + RLENGTH)
    if (before ~ /[0-9`]/) continue
    n = split(p, parts, ".")
    if (next2 ~ /^\.[([{]/ && parts[n] in alias) opened = 1
    for (i = 1; i < n; i++)
      if (parts[i] in alias) { print parts[n]; break }
    if (opened && before != "." && parts[1] ~ /^[a-z_]/) print parts[1]
  }
}
