# Prints every line of the Rust sources it is given that is not a test, as
# `FILE:LINE: TEXT`: the lines of each file outside its `#[cfg(test)] mod`.
# A column-0 `#[cfg(test)]` ends a file's scan only when the next line opens
# a `mod`, so a test-only item elsewhere hides nothing.
#
#   find crates/coord/src -name '*.rs' -exec awk -f .github/scripts/non-test-lines.awk {} + | wc -l
#
# counts the lines ROADMAP aim 2 counts; piped to `grep` instead, it scans
# the code outside the tests.
FNR == 1 { counting = 1; held = 0 }
held {
    held = 0
    if ($0 ~ /^(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+ *\{/) { counting = 0; next }
    print FILENAME ":" FNR - 1 ": " attribute
}
counting && /^#\[cfg\(test\)\]/ { held = 1; attribute = $0; next }
counting { print FILENAME ":" FNR ": " $0 }
