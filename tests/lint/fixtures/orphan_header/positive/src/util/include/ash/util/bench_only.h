// Fixture: included by bench/ alone, which is not scanned here but counts.
#pragma once
