# Print each call in an OCaml file, already blanked by bin/code_only.awk,
# that passes an anonymous function (`(fun` or `(function`) to one of the
# step-taking functions in `names`, outside the arguments of a call of
# the function `traced` (a span wrapper that only traced runs call), as
# FILE:LINE:
#
#   awk -f bin/code_only.awk lib/core/copy.ml |
#     awk -v file=lib/core/copy.ml -v traced=chunk_span \
#       -v names="stage Fabric.transfer_then Channel.recv_then Endpoint.post" \
#       -f bin/step_closures.awk
#
# A call's arguments run from its name to the end of the parentheses
# around it, or to a `;`, a `|` or a keyword that ends an expression
# (in, then, else, with, and, let, do, done) at the call's own depth;
# begin/end count as parentheses. A name right after `let` or `and` is
# a definition, not a call. With `traced` empty, no call is exempt.
{ text = text $0 "\n" }

function ident(c) { return c ~ /[A-Za-z0-9_']/ }

# the index just past the arguments of the call whose name ends before i
function call_end(i,   n, d, c, rest) {
  n = length(text)
  d = 0
  for (; i <= n; i++) {
    c = substr(text, i, 1)
    if (c ~ /[([{]/) d++
    else if (c ~ /[)\]}]/) { if (--d < 0) return i }
    else if (d == 0 && (c == ";" || c == "|")) return i
    else if (!ident(substr(text, i - 1, 1)) && c ~ /[a-z]/) {
      rest = substr(text, i, 6)
      if (rest ~ /^begin[^A-Za-z0-9_]/) d++
      else if (rest ~ /^end[^A-Za-z0-9_]/) { if (--d < 0) return i }
      else if (d == 0 && rest ~ /^(in|then|else|with|and|let|do|done)[^A-Za-z0-9_]/)
        return i
    }
  }
  return n + 1
}

# the start index of each call of [name] into starts[1..k]; returns k
function calls(name, starts,   re, s, off, k, p) {
  gsub(/\./, "\\.", name)
  re = "(^|[^A-Za-z0-9_'])" name "[^A-Za-z0-9_']"
  s = text
  off = 0
  k = 0
  while (match(s, re)) {
    p = off + RSTART + (RSTART > 1 || substr(s, 1, 1) !~ /[A-Za-z]/)
    if (substr(text, 1, p - 1) !~ /(let|and)( rec)? +$/) starts[++k] = p
    off += RSTART + RLENGTH - 1
    s = substr(s, RSTART + RLENGTH)
  }
  return k
}

END {
  nx = traced == "" ? 0 : calls(traced, xs)
  for (j = 1; j <= nx; j++) xe[j] = call_end(xs[j] + length(traced))
  n = split(names, steps, " ")
  for (f = 1; f <= n; f++) {
    nc = calls(steps[f], cs)
    for (j = 1; j <= nc; j++) {
      p = cs[j]
      exempt = 0
      for (x = 1; x <= nx; x++) if (p > xs[x] && p < xe[x]) exempt = 1
      args = substr(text, p, call_end(p + length(steps[f])) - p)
      if (!exempt && args ~ /\((fun|function)[^A-Za-z0-9_]/) {
        line = split(substr(text, 1, p), ignored, "\n")
        print file ":" line ": a closure passed to " steps[f]
      }
    }
  }
}
