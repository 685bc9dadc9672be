// Fixture: `unsafe` U001 must flag. Linted as a file outside
// `LintConfig::unsafe_allowed_files`, all five fire; linted as one of the
// allow-listed kernel files, the three without a `// SAFETY:` comment ending
// on the line directly above them still do.

fn documented(p: *const u8) -> u8 {
    // SAFETY: `p` points at a live byte; fine in a kernel file, not here.
    unsafe { *p }
}

fn undocumented(p: *const u8) -> u8 {
    unsafe { *p }
}

// SAFETY: separated from the item by a blank line.

unsafe fn detached() {}

/// # Safety
///
/// A doc section is for the caller; the reason belongs in a comment.
unsafe fn only_docs() {}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_are_not_exempt() {
        let x = 7u8;
        // SAFETY: `&x` is a live byte.
        let y = unsafe { *(&x as *const u8) };
        assert_eq!(x, y);
    }
}
