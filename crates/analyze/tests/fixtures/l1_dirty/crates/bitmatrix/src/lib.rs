//! Base layer that illegally reaches up into core, and whose manifest
//! opts out of the workspace lint table.
