// Fixture: what U001 accepts in an allow-listed kernel file — every `unsafe`
// directly under its `// SAFETY:` comment — and what it never mistakes for
// the keyword anywhere.

#![deny(unsafe_op_in_unsafe_fn)]

const DOC: &str = "unsafe in a string is data";
/* unsafe in a block comment is prose */

fn dispatch(state: &mut [u32; 8], blocks: &[u8]) {
    if is_x86_feature_detected!("sha") {
        // SAFETY: the feature the kernel is compiled for was detected on
        // the line above — a reason may run over several comment lines.
        return unsafe { kernel(state, blocks) };
    }
    portable(state, blocks)
}

fn load(quad: &[u8; 16]) -> __m128i {
    // SAFETY: `quad` is 16 readable bytes and the load is unaligned.
    unsafe { _mm_loadu_si128(quad.as_ptr().cast()) }
}

// SAFETY: the attribute only renames the symbol.
#[unsafe(no_mangle)]
fn exported() {}
