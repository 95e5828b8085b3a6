//! The wire codec measured on its own: each input is encoded as the
//! framed message a client would send, and decoding it is timed.

use crate::inputs::EventInputs;
use dievent_core::{CameraId, EventId, SessionInput};
use dievent_server::ClientMsg;
use std::time::Instant;

/// Mean microseconds `ClientMsg::read_from` takes per frame message.
/// Every decoded message must equal the one encoded.
pub fn decode_us_per_input(event: &EventInputs) -> Result<f64, String> {
    let total = event.total_inputs() as usize;
    let cameras = event.cameras().max(1);
    let mut buf = Vec::new();
    let mut decode_s = 0.0;
    let mut decoded = 0usize;
    for i in 0..total {
        let (f, c) = (i / cameras, i % cameras);
        let SessionInput::Frame(frame) = &event.inputs[f][c] else {
            return Err(format!("input {i} is not a frame"));
        };
        let msg = ClientMsg::Frame {
            event: EventId::new(1),
            camera: CameraId::new(c),
            seq: f as u64,
            frame: frame.clone(),
        };
        buf.clear();
        msg.write_to(&mut buf).map_err(|e| format!("encode: {e}"))?;
        let started = Instant::now();
        let back = ClientMsg::read_from(&mut buf.as_slice(), &|| false);
        decode_s += started.elapsed().as_secs_f64();
        match back {
            Ok(Some(back)) if back == msg => decoded += 1,
            other => return Err(format!("input {i} did not survive the codec: {other:?}")),
        }
    }
    Ok(decode_s * 1e6 / decoded.max(1) as f64)
}
