//! I/O fault shims: a deterministic failing writer for the journal crash
//! tests and any other code that needs a filesystem that dies on
//! schedule.
//!
//! [`FallibleWriter`] is the byte-budget model: good for exhaustive "cut
//! the stream at *every* byte offset" sweeps. Seams inside the program
//! consult their failpoint directly ([`crate::write_fate_tagged`]).

use std::io::{self, Write};

/// An `io::Write` that models a filesystem running out of space: it
/// honours at most `budget` bytes in total, serves *short* writes (at
/// most `max_chunk` bytes per call) on the way there, and then fails
/// every call with `ENOSPC`. Standard library callers like `write_all`
/// retry short writes, so the bytes that reach "disk" are exactly the
/// first `budget` — a frame cut mid-payload, mid-header, or mid-magic
/// depending on the budget.
pub struct FallibleWriter {
    /// Everything that reached the simulated disk, in order.
    pub out: Vec<u8>,
    /// Bytes still accepted before every call fails with ENOSPC.
    pub budget: usize,
    /// Largest number of bytes a single `write` call will take.
    pub max_chunk: usize,
}

impl FallibleWriter {
    /// A writer that accepts `budget` bytes in chunks of at most
    /// `max_chunk`, then fails with ENOSPC forever.
    #[must_use]
    pub fn new(budget: usize, max_chunk: usize) -> Self {
        Self { out: Vec::new(), budget, max_chunk }
    }
}

impl Write for FallibleWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.budget == 0 || buf.is_empty() {
            if buf.is_empty() {
                return Ok(0);
            }
            // 28 == ENOSPC on Linux.
            return Err(io::Error::from_raw_os_error(28));
        }
        let n = buf.len().min(self.budget).min(self.max_chunk);
        self.out.extend_from_slice(&buf[..n]);
        self.budget -= n;
        Ok(n)
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fallible_writer_lands_exactly_the_budget() {
        let image: Vec<u8> = (0..=255u8).collect();
        for max_chunk in [1usize, 7, usize::MAX] {
            for budget in [0usize, 1, 100, 255, 256] {
                let mut w = FallibleWriter::new(budget, max_chunk);
                let outcome = w.write_all(&image);
                assert_eq!(outcome.is_err(), budget < image.len(), "budget {budget}");
                if let Err(e) = outcome {
                    assert_eq!(e.raw_os_error(), Some(28));
                }
                assert_eq!(w.out, &image[..budget.min(image.len())], "budget {budget}");
            }
        }
    }
}
