//! A minimal ordered JSON writer. Reading goes through
//! `llmnpu::obs::json::Json`; the repo's vendored `serde_json` only
//! renders `serde::Value` trees, so the harness writes its few result
//! shapes directly.

use llmnpu::obs::json::write_str;

pub enum Val {
    Str(String),
    Num(f64),
    Bool(bool),
    Arr(Vec<Val>),
    Obj(Obj),
}

/// An object whose keys keep insertion order.
#[derive(Default)]
pub struct Obj(Vec<(String, Val)>);

impl Obj {
    pub fn new() -> Self {
        Obj::default()
    }

    pub fn put(&mut self, key: &str, val: Val) {
        self.0.push((key.to_owned(), val));
    }

    pub fn str(&mut self, key: &str, v: &str) {
        self.put(key, Val::Str(v.to_owned()));
    }

    pub fn num(&mut self, key: &str, v: f64) {
        self.put(key, Val::Num(v));
    }

    pub fn bool(&mut self, key: &str, v: bool) {
        self.put(key, Val::Bool(v));
    }

    pub fn obj(&mut self, key: &str, v: Obj) {
        self.put(key, Val::Obj(v));
    }

    pub fn strs(&mut self, key: &str, items: &[&str]) {
        self.put(
            key,
            Val::Arr(items.iter().map(|s| Val::Str((*s).to_owned())).collect()),
        );
    }

    pub fn objs(&mut self, key: &str, items: impl Iterator<Item = Obj>) {
        self.put(key, Val::Arr(items.map(Val::Obj).collect()));
    }

    /// One line, no spaces after separators inside nested values.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        write_obj(&mut out, self, None);
        out
    }

    /// Two-space indent; objects inside arrays stay on one line so a
    /// metric table reads as one row per metric.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        write_obj(&mut out, self, Some(0));
        out.push('\n');
        out
    }
}

fn write_val(out: &mut String, v: &Val, indent: Option<usize>) {
    match v {
        Val::Str(s) => write_str(out, s),
        // `{}` prints the shortest digits that round-trip: values keep
        // every digit they were measured with.
        Val::Num(n) if n.is_finite() => out.push_str(&format!("{n}")),
        Val::Num(_) => out.push_str("null"),
        Val::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Val::Arr(items) => write_arr(out, items, indent),
        Val::Obj(o) => write_obj(out, o, indent),
    }
}

fn write_arr(out: &mut String, items: &[Val], indent: Option<usize>) {
    let multiline = indent.is_some() && items.iter().any(|v| matches!(v, Val::Obj(_)));
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(if multiline { "," } else { ", " });
        }
        if let (true, Some(level)) = (multiline, indent) {
            out.push('\n');
            out.push_str(&"  ".repeat(level + 1));
        }
        write_val(out, item, None);
    }
    if let (true, Some(level)) = (multiline, indent) {
        out.push('\n');
        out.push_str(&"  ".repeat(level));
    }
    out.push(']');
}

fn write_obj(out: &mut String, o: &Obj, indent: Option<usize>) {
    out.push('{');
    for (i, (k, v)) in o.0.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match indent {
            Some(level) => {
                out.push('\n');
                out.push_str(&"  ".repeat(level + 1));
            }
            None if i > 0 => out.push(' '),
            None => {}
        }
        write_str(out, k);
        out.push_str(": ");
        write_val(out, v, indent.map(|l| l + 1));
    }
    if let (Some(level), false) = (indent, o.0.is_empty()) {
        out.push('\n');
        out.push_str(&"  ".repeat(level));
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmnpu::obs::json::Json;

    #[test]
    fn both_renderings_parse_back_with_every_digit() {
        let mut inner = Obj::new();
        inner.num("value", 1.203_456_789_012_3);
        inner.str("unit", "ms");
        let mut root = Obj::new();
        root.bool("correct", true);
        root.obj("m", inner);
        root.strs("cmd", &["bash", "a\"b"]);
        for text in [root.render_compact(), root.render_pretty()] {
            let back = Json::parse(&text).unwrap();
            let v = back.get("m").unwrap().get("value").unwrap().as_f64();
            assert_eq!(v, Some(1.203_456_789_012_3));
            assert_eq!(back.get("cmd").unwrap().as_arr().unwrap().len(), 2);
        }
        assert!(!root.render_compact().contains('\n'));
    }
}
