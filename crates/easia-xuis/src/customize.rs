//! XUIS customisation.
//!
//! "Separating the user interface specification from the user interface
//! processing can provide a number of further advantages: customisation
//! (aliases ... tables and attributes can also be hidden from view),
//! user defined relationships between tables ..., personalisation
//! (different users ... different XML files), operations ... associated
//! with database columns."

use crate::model::{FkSpec, Operation, UploadSpec, XuisDoc};

/// Fluent customisation wrapper over a document.
pub struct Customizer<'a> {
    doc: &'a mut XuisDoc,
}

/// Errors raised when a customisation names something absent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CustomizeError(pub String);

impl std::fmt::Display for CustomizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "customisation error: {}", self.0)
    }
}

impl std::error::Error for CustomizeError {}

type CResult = Result<(), CustomizeError>;

impl<'a> Customizer<'a> {
    /// Wrap a document for customisation.
    pub fn new(doc: &'a mut XuisDoc) -> Self {
        Customizer { doc }
    }

    fn table_mut(&mut self, table: &str) -> Result<&mut crate::model::XuisTable, CustomizeError> {
        self.doc
            .table_mut(table)
            .ok_or_else(|| CustomizeError(format!("no table {table}")))
    }

    fn column_mut(
        &mut self,
        table: &str,
        column: &str,
    ) -> Result<&mut crate::model::XuisColumn, CustomizeError> {
        let t = self.table_mut(table)?;
        t.column_mut(column)
            .ok_or_else(|| CustomizeError(format!("no column {table}.{column}")))
    }

    /// Set a display alias for a table.
    pub fn alias_table(&mut self, table: &str, alias: &str) -> CResult {
        self.table_mut(table)?.alias = Some(alias.to_string());
        Ok(())
    }

    /// Set a display alias for a column.
    pub fn alias_column(&mut self, table: &str, column: &str, alias: &str) -> CResult {
        self.column_mut(table, column)?.alias = Some(alias.to_string());
        Ok(())
    }

    /// Hide a column from the interface.
    pub fn hide_column(&mut self, table: &str, column: &str) -> CResult {
        self.column_mut(table, column)?.hidden = true;
        Ok(())
    }

    /// Replace sample values for a column ("different sample values").
    pub fn set_samples(&mut self, table: &str, column: &str, samples: &[&str]) -> CResult {
        self.column_mut(table, column)?.samples = samples.iter().map(|s| s.to_string()).collect();
        Ok(())
    }

    /// Set a foreign key's substitute display column — the paper's
    /// "Foreign key (AUTHOR_KEY) replaced with data from a specified
    /// column (Name) in the referenced Author table".
    pub fn substitute_fk(&mut self, table: &str, column: &str, substcolumn: &str) -> CResult {
        let c = self.column_mut(table, column)?;
        match &mut c.fk {
            Some(fk) => {
                fk.substcolumn = Some(substcolumn.to_string());
                Ok(())
            }
            None => Err(CustomizeError(format!(
                "{table}.{column} has no foreign key to substitute"
            ))),
        }
    }

    /// Add a user-defined relationship ("hypertext links to related data
    /// can be specified in the XML even if there are no referential
    /// integrity constraints defined for the database"): presents
    /// `table.column` as a foreign key into `ref_colid`.
    pub fn add_relationship(
        &mut self,
        table: &str,
        column: &str,
        ref_colid: &str,
        substcolumn: Option<&str>,
    ) -> CResult {
        let c = self.column_mut(table, column)?;
        c.fk = Some(FkSpec {
            tablecolumn: ref_colid.to_string(),
            substcolumn: substcolumn.map(str::to_string),
        });
        Ok(())
    }

    /// Attach an operation to a column.
    pub fn add_operation(&mut self, table: &str, column: &str, op: Operation) -> CResult {
        self.column_mut(table, column)?.operations.push(op);
        Ok(())
    }

    /// Allow code upload against a column's DATALINK files.
    pub fn allow_upload(&mut self, table: &str, column: &str, spec: UploadSpec) -> CResult {
        self.column_mut(table, column)?.upload = Some(spec);
        Ok(())
    }
}

/// Personalisation: derive the variant of a document a given class of
/// user sees ("different users (or classes of user) can have different
/// XML files"). Guests lose non-guest operations and all upload rights.
pub fn personalize_for_guest(doc: &XuisDoc) -> XuisDoc {
    let mut out = doc.clone();
    for t in &mut out.tables {
        for c in &mut t.columns {
            c.operations.retain(|op| op.guest_access);
            if c.upload.as_ref().is_some_and(|u| !u.guest_access) {
                c.upload = None;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Condition, Location, XuisColumn, XuisTable};

    fn doc() -> XuisDoc {
        XuisDoc {
            tables: vec![XuisTable {
                name: "SIMULATION".into(),
                primary_key: vec!["SIMULATION.SIMULATION_KEY".into()],
                alias: None,
                hidden: false,
                columns: vec![XuisColumn {
                    name: "AUTHOR_KEY".into(),
                    colid: "SIMULATION.AUTHOR_KEY".into(),
                    type_name: "VARCHAR".into(),
                    size: Some(30),
                    alias: None,
                    hidden: false,
                    pk_refby: vec![],
                    fk: Some(FkSpec {
                        tablecolumn: "AUTHOR.AUTHOR_KEY".into(),
                        substcolumn: None,
                    }),
                    samples: vec![],
                    operations: vec![],
                    upload: None,
                }],
            }],
        }
    }

    fn op(guest: bool) -> Operation {
        Operation {
            name: "GetImage".into(),
            op_type: "EPC".into(),
            filename: "g.epc".into(),
            format: "raw".into(),
            guest_access: guest,
            conditions: vec![Condition {
                colid: "X.Y".into(),
                eq: "v".into(),
            }],
            location: Location::Url("http://x".into()),
            description: None,
            parameters: vec![],
        }
    }

    #[test]
    fn aliases_and_hiding() {
        let mut d = doc();
        let mut c = Customizer::new(&mut d);
        c.alias_table("SIMULATION", "Simulations").unwrap();
        c.alias_column("SIMULATION", "AUTHOR_KEY", "Author")
            .unwrap();
        c.hide_column("SIMULATION", "AUTHOR_KEY").unwrap();
        assert_eq!(d.tables[0].display_name(), "Simulations");
        assert_eq!(d.tables[0].columns[0].display_name(), "Author");
        assert_eq!(d.tables[0].visible_columns().count(), 0);
    }

    #[test]
    fn paper_customisations() {
        let mut d = doc();
        let mut c = Customizer::new(&mut d);
        c.substitute_fk("SIMULATION", "AUTHOR_KEY", "AUTHOR.NAME")
            .unwrap();
        c.set_samples(
            "SIMULATION",
            "AUTHOR_KEY",
            &["user defined sample 1", "user defined sample value 2"],
        )
        .unwrap();
        let col = d.tables[0].column("AUTHOR_KEY").unwrap();
        assert_eq!(
            col.fk.as_ref().unwrap().substcolumn.as_deref(),
            Some("AUTHOR.NAME")
        );
        assert_eq!(col.samples.len(), 2);
    }

    #[test]
    fn user_defined_relationship() {
        let mut d = doc();
        // Pretend the DB has no FK; define a link purely in the XUIS.
        d.tables[0].columns[0].fk = None;
        let mut c = Customizer::new(&mut d);
        c.add_relationship(
            "SIMULATION",
            "AUTHOR_KEY",
            "AUTHOR.AUTHOR_KEY",
            Some("AUTHOR.NAME"),
        )
        .unwrap();
        assert!(d.tables[0].columns[0].fk.is_some());
    }

    #[test]
    fn errors_on_missing_names() {
        let mut d = doc();
        let mut c = Customizer::new(&mut d);
        assert!(c.alias_table("NOPE", "x").is_err());
        assert!(c.hide_column("SIMULATION", "NOPE").is_err());
        assert!(c.substitute_fk("SIMULATION", "AUTHOR_KEY", "A.N").is_ok());
    }

    #[test]
    fn substitute_requires_existing_fk() {
        let mut d = doc();
        d.tables[0].columns[0].fk = None;
        let mut c = Customizer::new(&mut d);
        assert!(c.substitute_fk("SIMULATION", "AUTHOR_KEY", "A.N").is_err());
    }

    #[test]
    fn guest_personalisation() {
        let mut d = doc();
        {
            let mut c = Customizer::new(&mut d);
            c.add_operation("SIMULATION", "AUTHOR_KEY", op(true))
                .unwrap();
            c.add_operation("SIMULATION", "AUTHOR_KEY", op(false))
                .unwrap();
            c.allow_upload(
                "SIMULATION",
                "AUTHOR_KEY",
                UploadSpec {
                    upload_type: "EPC".into(),
                    format: "tar.ez".into(),
                    guest_access: false,
                    conditions: vec![],
                },
            )
            .unwrap();
        }
        let guest = personalize_for_guest(&d);
        let col = guest.tables[0].column("AUTHOR_KEY").unwrap();
        assert_eq!(col.operations.len(), 1, "guest-only operations remain");
        assert!(col.upload.is_none(), "guests cannot upload");
        // Original unchanged.
        assert_eq!(d.tables[0].columns[0].operations.len(), 2);
    }
}
