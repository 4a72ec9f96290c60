//! `unsafe-safety-comment` fixtures: every `unsafe` block, `unsafe fn`
//! and `unsafe impl` needs a `// SAFETY:` comment on the lines directly
//! above it. Each violation carries a trailing `BAD` marker.

struct Raw(*const u8);

unsafe impl Send for Raw {} // BAD: no comment at all

// SAFETY: `Raw` is only ever read through shared references.
unsafe impl Sync for Raw {}

fn bad_block(p: *const u8) -> u8 {
    // Reads the byte (says nothing about why that is sound).
    unsafe { *p } // BAD: the comment above is not a SAFETY comment
}

fn bad_separated(p: *const u8) -> u8 {
    // SAFETY: a blank line parts this comment from the block.

    unsafe { *p } // BAD: separated by a blank line
}

fn bad_after_code(p: *const u8) -> u8 {
    // SAFETY: this comment belongs to the statement below it.
    let q = p;
    unsafe { *q } // BAD: code between comment and block
}

/// Reads a byte, without saying what the caller must guarantee.
unsafe fn bad_fn(p: *const u8) -> u8 { // BAD: no `# Safety` section
    // SAFETY: the caller guarantees that `p` is valid for reads.
    unsafe { *p }
}

fn good_block(p: &u8) -> u8 {
    // SAFETY: `p` is a reference, so it is valid for reads.
    unsafe { *std::ptr::from_ref(p) }
}

fn good_in_expression(p: &u8) -> u8 {
    // SAFETY: `p` is a reference, so it is valid for reads.
    let v = unsafe { *std::ptr::from_ref(p) };
    v
}

/// Reads a byte.
///
/// # Safety
///
/// `p` must be valid for reads.
#[inline]
pub unsafe fn good_fn(p: *const u8) -> u8 {
    // SAFETY: the caller guarantees that `p` is valid for reads.
    unsafe { *p }
}

// SAFETY: it has no body to be unsound; the attribute does not end the run.
#[no_mangle]
unsafe extern "C" fn good_extern_fn() {}

// A function-pointer type is not an `unsafe fn` item.
fn takes_callback(f: unsafe fn(u8)) -> unsafe fn(u8) {
    f
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_not_exempt() {
        let x = 1u8;
        let _ = unsafe { *std::ptr::from_ref(&x) }; // BAD: tests need the comment too
    }
}
