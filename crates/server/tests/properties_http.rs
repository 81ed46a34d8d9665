//! Property tests for the request-head reader: a peer decides how its
//! bytes are split across reads, so the verdict of `read_request` must
//! not depend on that split — above all at the `MAX_HEAD_BYTES` limit.

use dcnr_server::http::{read_request, MAX_HEAD_BYTES};
use proptest::prelude::*;
use std::io::Read;

/// A reader that hands out `data` in the given chunk sizes, cycling
/// through them (each clamped to at least one byte).
struct Chunked {
    data: Vec<u8>,
    pos: usize,
    sizes: Vec<usize>,
    next: usize,
}

impl Read for Chunked {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let size = self.sizes[self.next % self.sizes.len()].max(1);
        self.next += 1;
        let n = size.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// The verdict, compared through `Debug` (`HttpError` is not `Eq`).
fn verdict(reader: &mut impl Read) -> String {
    format!("{:?}", read_request(reader))
}

prop_compose! {
    /// A well-formed head padded so its terminator ends a few hundred
    /// bytes either side of the limit, with arbitrary trailing bytes.
    fn near_limit_request()(
        end in (MAX_HEAD_BYTES - 600)..(MAX_HEAD_BYTES + 600),
        tail in prop::collection::vec(any::<u8>(), 0..64),
    ) -> Vec<u8> {
        let prefix = b"GET /healthz HTTP/1.1\r\nX-Pad: ";
        let mut raw = prefix.to_vec();
        raw.resize(end - 4, b'a');
        raw.extend_from_slice(b"\r\n\r\n");
        raw.extend_from_slice(&tail);
        raw
    }
}

/// Arbitrary bytes, salted with CRLFs so terminators do occur, up to a
/// little past the limit.
fn arbitrary_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(
        prop::sample::select(vec![b'\r', b'\n', b'G', b' ', b'/', b'a', 0xff]),
        0..(MAX_HEAD_BYTES + 2048),
    )
}

prop_compose! {
    /// Read sizes: some runs of single bytes, some tiny, some larger
    /// than the reader's own buffer.
    fn chunk_sizes()(
        max in prop::sample::select(vec![1usize, 3, 7, 64, 1000, 5000]),
        picks in prop::collection::vec(any::<usize>(), 1..16),
    ) -> Vec<usize> {
        picks.into_iter().map(|p| 1 + p % max).collect()
    }
}

fn chunked(data: &[u8], sizes: Vec<usize>) -> Chunked {
    Chunked {
        data: data.to_vec(),
        pos: 0,
        sizes,
        next: 0,
    }
}

proptest! {
    #[test]
    fn near_limit_heads_get_the_same_verdict_however_they_are_split(
        raw in near_limit_request(),
        sizes in chunk_sizes(),
    ) {
        let whole = verdict(&mut raw.as_slice());
        prop_assert_eq!(verdict(&mut chunked(&raw, sizes)), whole.clone());
        // The limit itself: accepted iff the terminator ends within it.
        let end = raw.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
        prop_assert_eq!(whole.starts_with("Ok("), end <= MAX_HEAD_BYTES, "{}", whole);
    }

    #[test]
    fn arbitrary_bytes_never_panic_and_ignore_the_split(
        raw in arbitrary_bytes(),
        sizes in chunk_sizes(),
    ) {
        let whole = verdict(&mut raw.as_slice());
        prop_assert_eq!(verdict(&mut chunked(&raw, sizes)), whole);
    }
}
